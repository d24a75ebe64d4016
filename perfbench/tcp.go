package main

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"s2/internal/core"
	"s2/internal/sidecar"
)

// countingListener counts the connections it accepts and the bytes moved
// over them. The workers listen on 127.0.0.1, so the traffic crosses the
// loopback interface, not a physical link.
type countingListener struct {
	net.Listener
	conns atomic.Int64
	bytes *atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.conns.Add(1)
	return countedConn{Conn: c, bytes: l.bytes}, nil
}

type countedConn struct {
	net.Conn
	bytes *atomic.Int64
}

func (c countedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.bytes.Add(int64(n))
	return n, err
}

func (c countedConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.bytes.Add(int64(n))
	return n, err
}

// fleet is a set of sidecar workers served over loopback TCP from inside
// the benchmark process, standing in for s2worker processes.
type fleet struct {
	addrs   []string
	servers []*sidecar.Server
	lis     []*countingListener
	bytes   atomic.Int64
	wg      sync.WaitGroup
}

func startFleet(n int) (*fleet, error) {
	f := &fleet{}
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			f.stop()
			return nil, fmt.Errorf("worker listener: %w", err)
		}
		cl := &countingListener{Listener: l, bytes: &f.bytes}
		srv := sidecar.NewServer(core.NewWorker())
		f.addrs = append(f.addrs, l.Addr().String())
		f.servers = append(f.servers, srv)
		f.lis = append(f.lis, cl)
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			_ = srv.Serve(cl) // returns once stop shuts the server down
		}()
	}
	return f, nil
}

// traffic reports accepted connections and bytes moved so far.
func (f *fleet) traffic() (conns, bytes int64) {
	if f == nil {
		return 0, 0
	}
	for _, l := range f.lis {
		conns += l.conns.Load()
	}
	return conns, f.bytes.Load()
}

// stop severs every connection, closes the listeners and waits for the
// accept loops to return.
func (f *fleet) stop() {
	if f == nil {
		return
	}
	for _, s := range f.servers {
		s.Shutdown(0)
	}
	f.wg.Wait()
}
