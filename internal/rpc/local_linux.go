package rpc

// The local transport: a server bound to a loopback address also listens on
// a Linux abstract Unix socket named for that address, and a client of a
// loopback address dials that name before TCP. The frames are the same; only
// the socket under them differs (docs/WIRE.md, "Transport").

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"os"
	"strconv"
	"strings"
	"syscall"
)

// localPrefix begins every abstract socket name of this transport; the
// loopback TCP address it stands for follows. The leading @ is Go's spelling
// of the abstract namespace: the name is no file and vanishes with its
// socket.
const localPrefix = "@geomds/rpc/"

var loopback4 = net.IPv4(127, 0, 0, 1)

// localName is the abstract socket name standing for ip:port.
func localName(ip net.IP, port int) string {
	return localPrefix + net.JoinHostPort(ip.String(), strconv.Itoa(port))
}

// listenNames returns the names a TCP listener bound to bound also serves:
// one per loopback address it accepts connections on. An unspecified IPv6
// address is a dual-stack listener, so it accepts both loopbacks; a
// non-loopback address gets none.
func listenNames(bound net.Addr) []string {
	a, ok := bound.(*net.TCPAddr)
	switch {
	case !ok:
		return nil
	case a.IP.IsLoopback():
		return []string{localName(a.IP, a.Port)}
	case !a.IP.IsUnspecified():
		return nil
	case a.IP.To4() != nil:
		return []string{localName(loopback4, a.Port)}
	default:
		return []string{localName(loopback4, a.Port), localName(net.IPv6loopback, a.Port)}
	}
}

// dialNames returns the names a client of addr tries before TCP: the name of
// a loopback IP literal, or both loopback names for localhost, IPv4 first as
// in the hosts file. Any other address, host names included, tries none.
func dialNames(addr string) []string {
	host, portStr, err := net.SplitHostPort(addr)
	if err != nil {
		return nil
	}
	port, err := strconv.Atoi(portStr)
	if err != nil {
		return nil
	}
	if strings.EqualFold(host, "localhost") {
		return []string{localName(loopback4, port), localName(net.IPv6loopback, port)}
	}
	if ip := net.ParseIP(host); ip != nil && ip.IsLoopback() {
		return []string{localName(ip, port)}
	}
	return nil
}

// listenLocal listens on the names of bound. A name already held is an error
// naming it: only another process can hold the name of a port this server
// holds, and it must not answer this server's clients. Any other failure
// (a sandbox that forbids the socket) leaves the server on TCP alone and is
// logged once.
func listenLocal(bound net.Addr, logger *log.Logger) ([]net.Listener, error) {
	var lns []net.Listener
	for _, name := range listenNames(bound) {
		ln, err := net.Listen("unix", name)
		if err != nil {
			for _, l := range lns {
				l.Close()
			}
			if errors.Is(err, syscall.EADDRINUSE) {
				return nil, fmt.Errorf("rpc: local socket for %s: %w", bound, err)
			}
			logger.Printf("rpc: serving %s over TCP only: %v", bound, err)
			return nil, nil
		}
		lns = append(lns, ln)
	}
	return lns, nil
}

// dialLocal connects to the first of names that a process of this user
// listens on, or returns nil, and the caller dials TCP: no such name, a
// refused connect (one that fails at once), or a peer of another user.
func dialLocal(ctx context.Context, d *net.Dialer, names []string) net.Conn {
	for _, name := range names {
		conn, err := d.DialContext(ctx, "unix", name)
		if err != nil {
			continue
		}
		if cred, err := peerCred(conn); err == nil && trustedPeer(cred) {
			return conn
		}
		conn.Close()
		return nil
	}
	return nil
}

// trustedPeer is the local socket's trust rule. A loopback TCP port has one
// owner, but an abstract name belongs to whoever binds it first, and a server
// that serves no name (one built with Serve, or one whose listen failed)
// leaves its names free for any process. Only a peer running as this
// process's user is taken for the server at the address.
func trustedPeer(cred *syscall.Ucred) bool {
	return cred.Uid == uint32(os.Getuid())
}

// peerCred returns the credentials the peer of a Unix connection listened
// with.
func peerCred(conn net.Conn) (*syscall.Ucred, error) {
	uc, ok := conn.(*net.UnixConn)
	if !ok {
		return nil, fmt.Errorf("rpc: %T is not a Unix connection", conn)
	}
	raw, err := uc.SyscallConn()
	if err != nil {
		return nil, err
	}
	var cred *syscall.Ucred
	var cerr error
	if err := raw.Control(func(fd uintptr) {
		cred, cerr = syscall.GetsockoptUcred(int(fd), syscall.SOL_SOCKET, syscall.SO_PEERCRED)
	}); err != nil {
		return nil, err
	}
	return cred, cerr
}
