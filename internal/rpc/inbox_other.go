//go:build !linux

package rpc

import (
	"net"
	"syscall"
)

// Elsewhere every connection is read with conn.Read (inbox_linux.go).

func rawConn(net.Conn) syscall.RawConn { return nil }

func (in *inbox) readRaw(func([]byte) bool) error { panic("rpc: no raw reads off Linux") }
