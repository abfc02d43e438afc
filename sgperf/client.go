package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"time"
)

// conn is a minimal keep-alive HTTP/1.1 client on one TCP connection.
// Requests are fully rendered (head and body) before timing starts, so
// a round trip is one write and one parsed response; the client adds
// as little CPU as it can to the two cores it shares with the servers.
// A net/http client in its place (one Transport per client, one
// keep-alive connection, the same rendered bodies) cut point-json-d3l5
// from 15.9k–17.3k to 12.7k–13.1k points/s and raised its p50 from
// 0.10–0.11 to 0.13–0.14 ms on a 2-vCPU Xeon, three seeds each, well
// beyond the run-to-run spread: its CPU would dilute every change the
// program makes to the HTTP, JSON and proxy layers.
type conn struct {
	addr string
	c    net.Conn
	br   *bufio.Reader
	body []byte // last response body; reused
	id   []byte // last response's X-Request-Id; reused
}

var errMalformed = errors.New("malformed response")

func (h *conn) close() {
	if h.c != nil {
		h.c.Close()
		h.c = nil
	}
}

// roundTrip sends one rendered request and returns the status and the
// body, which stays valid until the next call.
func (h *conn) roundTrip(req []byte) (status int, body []byte, err error) {
	if h.c == nil {
		c, err := net.DialTimeout("tcp", h.addr, 2*time.Second)
		if err != nil {
			return 0, nil, err
		}
		h.c, h.br = c, bufio.NewReaderSize(c, 64<<10)
	}
	if err := h.c.SetDeadline(time.Now().Add(30 * time.Second)); err != nil {
		h.close()
		return 0, nil, err
	}
	status, keep, err := h.read(req)
	if err != nil || !keep {
		h.close()
	}
	return status, h.body, err
}

func (h *conn) read(req []byte) (status int, keep bool, err error) {
	if _, err := h.c.Write(req); err != nil {
		return 0, false, err
	}
	line, err := h.br.ReadSlice('\n')
	if err != nil {
		return 0, false, err
	}
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.")) {
		return 0, false, errMalformed
	}
	if status, err = strconv.Atoi(string(line[9:12])); err != nil {
		return 0, false, errMalformed
	}
	clen, chunked, keep := -1, false, true
	h.id = h.id[:0]
	for {
		line, err := h.br.ReadSlice('\n')
		if err != nil {
			return 0, false, err
		}
		line = bytes.TrimRight(line, "\r\n")
		if len(line) == 0 {
			break
		}
		k, v, ok := bytes.Cut(line, []byte(":"))
		if !ok {
			return 0, false, errMalformed
		}
		v = bytes.TrimSpace(v)
		switch {
		case bytes.EqualFold(k, []byte("Content-Length")):
			if clen, err = strconv.Atoi(string(v)); err != nil {
				return 0, false, errMalformed
			}
		case bytes.EqualFold(k, []byte("Transfer-Encoding")):
			chunked = bytes.EqualFold(v, []byte("chunked"))
		case bytes.EqualFold(k, []byte("Connection")):
			keep = !bytes.EqualFold(v, []byte("close"))
		case bytes.EqualFold(k, []byte("X-Request-Id")):
			h.id = append(h.id, v...)
		}
	}
	h.body = h.body[:0]
	switch {
	case chunked:
		err = h.readChunked()
	case clen >= 0:
		h.body = grow(h.body, clen)
		_, err = io.ReadFull(h.br, h.body)
	default:
		return 0, false, fmt.Errorf("response without length")
	}
	return status, keep, err
}

func (h *conn) readChunked() error {
	for {
		line, err := h.br.ReadSlice('\n')
		if err != nil {
			return err
		}
		size, err := strconv.ParseInt(string(bytes.TrimRight(line, "\r\n")), 16, 32)
		if err != nil {
			return errMalformed
		}
		if size == 0 {
			_, err := h.br.ReadSlice('\n') // no trailers are sent
			return err
		}
		n := len(h.body)
		h.body = grow(h.body, n+int(size))
		if _, err := io.ReadFull(h.br, h.body[n:]); err != nil {
			return err
		}
		if _, err := h.br.Discard(2); err != nil {
			return err
		}
	}
}

func grow(b []byte, n int) []byte {
	if cap(b) < n {
		nb := make([]byte, n, 2*n)
		copy(nb, b)
		return nb
	}
	return b[:n]
}

// renderRequest renders a complete POST request.
func renderRequest(path, ctype string, body []byte) []byte {
	head := fmt.Sprintf("POST %s HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: %s\r\nContent-Length: %d\r\n\r\n",
		path, ctype, len(body))
	return append([]byte(head), body...)
}
