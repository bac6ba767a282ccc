package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"syscall"
	"time"
)

// conn is one keep-alive HTTP/1.1 connection driven synchronously by one
// goroutine: write the request, read the response. It is deliberately not
// net/http's client, whose per-request goroutine hand-offs and allocations
// would spend the two cores this host has on the load generator rather
// than on the program under test.
type conn struct {
	addr string
	c    net.Conn
	r    *bufio.Reader
	req  bytes.Buffer
	body bytes.Buffer
}

func dial(addr string) (*conn, error) {
	c, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		return nil, err
	}
	return &conn{addr: addr, c: c, r: bufio.NewReaderSize(c, 64<<10)}, nil
}

func (c *conn) close() { _ = c.c.Close() }

// post sends one request and returns the status and the response body; the
// body is valid until the next call. Every request carries a deadline, so a
// hung program fails the operation instead of the run.
func (c *conn) post(path string, body []byte) (int, []byte, error) {
	return c.do("POST", path, body)
}

func (c *conn) get(path string) (int, []byte, error) { return c.do("GET", path, nil) }

func (c *conn) do(method, path string, body []byte) (int, []byte, error) {
	c.req.Reset()
	c.req.WriteString(method)
	c.req.WriteByte(' ')
	c.req.WriteString(path)
	c.req.WriteString(" HTTP/1.1\r\nHost: ")
	c.req.WriteString(c.addr)
	if body != nil {
		c.req.WriteString("\r\nContent-Type: application/json\r\nContent-Length: ")
		c.req.WriteString(strconv.Itoa(len(body)))
	}
	c.req.WriteString("\r\n\r\n")
	c.req.Write(body)
	if err := c.c.SetDeadline(time.Now().Add(requestTimeout)); err != nil {
		return 0, nil, err
	}
	if _, err := c.c.Write(c.req.Bytes()); err != nil {
		return 0, nil, err
	}
	resp, err := http.ReadResponse(c.r, nil)
	if err != nil {
		return 0, nil, err
	}
	c.body.Reset()
	_, err = io.Copy(&c.body, resp.Body)
	_ = resp.Body.Close()
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, c.body.Bytes(), nil
}

// requestTimeout bounds one request; the slowest operation any workload
// sends takes well under a second.
const requestTimeout = 10 * time.Second

// getJSON fetches a path on a fresh connection (set-up and scrape paths,
// never the measured loop).
func getBody(addr, path string) ([]byte, error) {
	c, err := dial(addr)
	if err != nil {
		return nil, err
	}
	defer c.close()
	status, body, err := c.get(path)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("GET %s%s: status %d", addr, path, status)
	}
	return bytes.Clone(body), nil
}

// sleepUntil blocks until the given instant using nanosleep directly: the Go
// runtime's timers wake an idle process about half a millisecond late on
// this host, several times the latency being measured, whereas a thread
// parked in nanosleep wakes within tens of microseconds.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: loop re-computes the rest
	}
}

// tightenTimerSlack asks the kernel to wake this thread's sleeps without
// the default 50µs of slack; threads the runtime starts later inherit it.
// Called first thing in main, on the main thread.
func tightenTimerSlack() {
	const prSetTimerslack = 29
	_, _, _ = syscall.Syscall(syscall.SYS_PRCTL, prSetTimerslack, 1, 0)
}
