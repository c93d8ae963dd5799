package voctest

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/textproto"
	"strconv"
	"strings"
	"testing"
	"time"
)

// KeepAliveHead sends GET target to addr twice over one connection, with
// Accept-Encoding: gzip, and returns the second response's head exactly
// as it came off the wire — status line, headers and the blank line that
// ends them — and its body. The second request on the same connection is
// what shows the daemon kept it alive, so the head is that of a
// keep-alive response, the kind a client pays for on every query.
func KeepAliveHead(tb testing.TB, addr, target string) (head, body []byte) {
	tb.Helper()
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		tb.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	br := bufio.NewReader(conn)
	for range 2 {
		if _, err := fmt.Fprintf(conn, "GET %s HTTP/1.1\r\nHost: %s\r\nAccept-Encoding: gzip\r\n\r\n", target, addr); err != nil {
			tb.Fatal(err)
		}
		if head, body, err = readResponse(br); err != nil {
			tb.Fatalf("GET %s: %v", target, err)
		}
	}
	return head, body
}

// readResponse reads one HTTP/1.1 response framed by Content-Length.
func readResponse(br *bufio.Reader) (head, body []byte, err error) {
	for {
		line, err := br.ReadSlice('\n')
		if err != nil {
			return nil, nil, err
		}
		head = append(head, line...)
		if len(line) == 2 { // "\r\n" ends the head
			break
		}
	}
	hdr, err := parseHead(head)
	if err != nil {
		return nil, nil, err
	}
	n, err := strconv.Atoi(hdr.Get("Content-Length"))
	if err != nil {
		return nil, nil, fmt.Errorf("no Content-Length in %q", head)
	}
	body = make([]byte, n)
	_, err = io.ReadFull(br, body)
	return head, body, err
}

// LongestHead returns the length head would have at its longest for a
// body of up to maxBody bytes: Content-Length written for maxBody, and
// every comma-separated token of the named header at 16 characters (a
// boot epoch is a uint64 in hex, which drops leading zeros).
func LongestHead(tb testing.TB, head []byte, maxBody int, header string) int {
	tb.Helper()
	hdr, err := parseHead(head)
	if err != nil {
		tb.Fatal(err)
	}
	n := len(head) + len(strconv.Itoa(maxBody)) - len(hdr.Get("Content-Length"))
	tokens := strings.Split(hdr.Get(header), ",")
	if len(tokens) == 1 && tokens[0] == "" {
		tb.Fatalf("the head has no %s: %q", header, head)
	}
	for _, tok := range tokens {
		n += max(16-len(tok), 0)
	}
	return n
}

// parseHead parses the header lines of a response head.
func parseHead(head []byte) (textproto.MIMEHeader, error) {
	return textproto.NewReader(bufio.NewReader(bytes.NewReader(head[bytes.IndexByte(head, '\n')+1:]))).ReadMIMEHeader()
}
