//go:build !linux

package rpc

// Abstract Unix sockets are Linux's: elsewhere a server listens on TCP alone
// and a client dials TCP (local_linux.go).

import (
	"context"
	"log"
	"net"
)

func dialNames(string) []string { return nil }

func listenLocal(net.Addr, *log.Logger) ([]net.Listener, error) { return nil, nil }

func dialLocal(context.Context, *net.Dialer, []string) net.Conn { return nil }
