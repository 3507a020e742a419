package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"time"

	"mcnet/internal/serve"
)

// service is an in-process capacity-planning server on a loopback listener.
type service struct {
	srv    *serve.Server
	hs     *http.Server
	addr   string
	served chan error
}

func startService(workers int) (*service, error) {
	srv, err := serve.New(serve.Config{Workers: workers})
	if err != nil {
		return nil, fmt.Errorf("serve.New: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &service{srv: srv, hs: &http.Server{Handler: srv.Handler()}, addr: ln.Addr().String(), served: make(chan error, 1)}
	go func() { s.served <- s.hs.Serve(ln) }()
	return s, nil
}

// close stops the listener, waits for open requests and the serving
// goroutine, then stops the job workers.
func (s *service) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	s.srv.Close()
	return err
}

// conn is one keep-alive HTTP/1.1 client connection. It writes each
// request and parses its response on the calling goroutine: net/http's
// Transport hands every request to a writer and a reader goroutine, and on
// a small VM each hand-off wakes a CPU, which would make the harness as
// slow as the service it measures. Dialing is lazy, and a connection that
// fails is dropped and redialed on the next request.
type conn struct {
	addr string
	nc   net.Conn
	br   *bufio.Reader
	wbuf []byte
}

func newConn(addr string) *conn { return &conn{addr: addr} }

func (c *conn) close() {
	if c.nc != nil {
		c.nc.Close()
		c.nc = nil
	}
}

// send writes one request and returns its response, whose body the caller
// must read to the end and close before the next request.
func (c *conn) send(method, path string, body []byte) (*http.Response, error) {
	if c.nc == nil {
		nc, err := net.Dial("tcp", c.addr)
		if err != nil {
			return nil, err
		}
		c.nc, c.br = nc, bufio.NewReader(nc)
	}
	c.wbuf = append(c.wbuf[:0], method...)
	c.wbuf = append(c.wbuf, ' ')
	c.wbuf = append(c.wbuf, path...)
	c.wbuf = append(c.wbuf, " HTTP/1.1\r\nHost: perfbench\r\n"...)
	if body != nil {
		c.wbuf = append(c.wbuf, "Content-Type: application/json\r\nContent-Length: "...)
		c.wbuf = strconv.AppendInt(c.wbuf, int64(len(body)), 10)
		c.wbuf = append(c.wbuf, "\r\n"...)
	}
	c.wbuf = append(c.wbuf, "\r\n"...)
	c.wbuf = append(c.wbuf, body...)
	if _, err := c.nc.Write(c.wbuf); err != nil {
		c.close()
		return nil, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		c.close()
		return nil, err
	}
	return resp, nil
}

// reply is a fully read response.
type reply struct {
	status int
	cache  string // X-Cache header
	body   []byte
}

func (c *conn) do(method, path string, body []byte) (reply, error) {
	resp, err := c.send(method, path, body)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		c.close()
		return reply{}, err
	}
	return reply{status: resp.StatusCode, cache: resp.Header.Get("X-Cache"), body: b}, nil
}
