package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"sync"
	"time"
)

// The load generator is closed-loop and pipelined: each connection
// keeps up to depth requests outstanding, refills every free slot in
// one burst and flushes once per burst. Every key is owned by exactly
// one connection, so the server executes a connection's requests for
// a key in send order, and a get must return exactly the value of the
// last set sent on that connection before it. The expected version is
// therefore fixed when the get is sent, never when its reply arrives.

const valueBytes = 64

type opKind uint8

const (
	opGet opKind = iota
	opSet
)

// keyspace holds the key names and, per key, the version of the last
// set sent and the last set acknowledged. Version 0 means never set.
// Key k belongs to connection k % conns; only that connection's
// writer touches sent[k] and only its reader touches acked[k].
type keyspace struct {
	seed  uint64
	names [][]byte
	sent  []uint32
	acked []uint32
}

func newKeyspace(seed uint64, n int) *keyspace {
	ks := &keyspace{seed: seed, names: make([][]byte, n), sent: make([]uint32, n), acked: make([]uint32, n)}
	for i := range ks.names {
		ks.names[i] = []byte(fmt.Sprintf("k%07d", i))
	}
	return ks
}

// value renders the deterministic payload of version ver of key k.
func (ks *keyspace) value(k int, ver uint32, out []byte) []byte {
	out = out[:0]
	x := ks.seed ^ uint64(k)<<32 ^ uint64(ver)
	for len(out) < valueBytes {
		x = splitmix64(x)
		for b := 0; b < 8 && len(out) < valueBytes; b++ {
			out = append(out, 'a'+byte((x>>(8*b))%26))
		}
	}
	return out
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// op is one request in flight: what was sent, the version a get must
// return (or a set carries), and when its burst was flushed.
type op struct {
	kind opKind
	key  int
	ver  uint32
	sent time.Time
}

// opSource yields the next request for a connection; ok=false ends
// the phase for that connection.
type opSource func() (kind opKind, key int, ok bool)

// window selects which completions a phase records: those completing
// in [from, to). A zero window records nothing.
type window struct{ from, to time.Time }

func (w window) has(t time.Time) bool { return !t.Before(w.from) && t.Before(w.to) }

// phaseResult aggregates one phase across connections.
type phaseResult struct {
	attempted, failed int64
	firstFailure      string
	done              int64   // completions inside the window
	all, get, set     []int64 // RTT ns of completions inside the window
}

func (r *phaseResult) merge(o *phaseResult) {
	r.attempted += o.attempted
	r.failed += o.failed
	if r.firstFailure == "" {
		r.firstFailure = o.firstFailure
	}
	r.done += o.done
	r.all = append(r.all, o.all...)
	r.get = append(r.get, o.get...)
	r.set = append(r.set, o.set...)
}

func (r *phaseResult) fail(format string, args ...any) {
	r.failed++
	if r.firstFailure == "" {
		r.firstFailure = fmt.Sprintf(format, args...)
	}
}

// client is a set of pipelined connections to one server.
type client struct {
	ks    *keyspace
	conns []*conn
}

type conn struct {
	idx int
	nc  net.Conn
	r   *bufio.Reader
	w   *bufio.Writer
}

func dial(addr string, ks *keyspace, n int) (*client, error) {
	c := &client{ks: ks}
	for i := 0; i < n; i++ {
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			c.close()
			return nil, fmt.Errorf("dial %s: %w", addr, err)
		}
		c.conns = append(c.conns, &conn{idx: i, nc: nc, r: bufio.NewReaderSize(nc, 64<<10), w: bufio.NewWriterSize(nc, 64<<10)})
	}
	return c, nil
}

func (c *client) close() {
	for _, cn := range c.conns {
		cn.nc.Close()
	}
}

// run drives one phase: every connection keeps up to depth requests
// outstanding until its source runs dry or stop closes, then waits for
// its replies. A transport error aborts the phase.
func (c *client) run(depth int, src func(conn int) opSource, win window, stop <-chan struct{}) (phaseResult, error) {
	var (
		mu   sync.Mutex
		out  phaseResult
		errs []error
		wg   sync.WaitGroup
	)
	for _, cn := range c.conns {
		wg.Add(1)
		go func(cn *conn) {
			defer wg.Done()
			res, err := c.runConn(cn, depth, src(cn.idx), win, stop)
			mu.Lock()
			defer mu.Unlock()
			out.merge(&res)
			if err != nil {
				errs = append(errs, fmt.Errorf("connection %d: %w", cn.idx, err))
			}
		}(cn)
	}
	wg.Wait()
	return out, errors.Join(errs...)
}

func (c *client) runConn(cn *conn, depth int, next opSource, win window, stop <-chan struct{}) (phaseResult, error) {
	inflight := make(chan op, depth) // one entry per outstanding request
	slots := make(chan struct{}, depth)
	for i := 0; i < depth; i++ {
		slots <- struct{}{}
	}
	var res phaseResult
	var rerr error
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		rerr = c.readReplies(cn, inflight, slots, win, &res)
	}()
	werr := c.writeRequests(cn, depth, next, inflight, slots, stop, readerDone)
	close(inflight)
	if werr != nil {
		cn.nc.Close() // the reader may be waiting on a reply that will never come
	}
	<-readerDone
	if werr != nil {
		return res, werr
	}
	return res, rerr
}

func (c *client) writeRequests(cn *conn, depth int, next opSource, inflight chan<- op, slots chan struct{}, stop, readerDone <-chan struct{}) error {
	ks := c.ks
	var val []byte
	batch := make([]op, 0, depth)
	for {
		select {
		case <-stop:
			return nil
		case <-readerDone:
			return nil
		case <-slots:
		}
		free := 1
	refill:
		for free < depth {
			select {
			case <-slots:
				free++
			default:
				break refill
			}
		}
		batch = batch[:0]
		for i := 0; i < free; i++ {
			kind, k, ok := next()
			if !ok {
				break
			}
			o := op{kind: kind, key: k}
			name := ks.names[k]
			if kind == opSet {
				ks.sent[k]++
				o.ver = ks.sent[k]
				val = ks.value(k, o.ver, val)
				cn.w.WriteString("set ")
				cn.w.Write(name)
				cn.w.WriteString(" 0 0 64\r\n")
				cn.w.Write(val)
				cn.w.WriteString("\r\n")
			} else {
				o.ver = ks.sent[k]
				cn.w.WriteString("get ")
				cn.w.Write(name)
				cn.w.WriteString("\r\n")
			}
			batch = append(batch, o)
		}
		if len(batch) == 0 {
			return nil
		}
		now := time.Now()
		for i := range batch {
			batch[i].sent = now
			inflight <- batch[i]
		}
		if err := cn.w.Flush(); err != nil {
			return fmt.Errorf("send: %w", err)
		}
		if len(batch) < free {
			return nil
		}
	}
}

var (
	lineStored = []byte("STORED\r\n")
	lineEnd    = []byte("END\r\n")
	prefValue  = []byte("VALUE ")
)

func (c *client) readReplies(cn *conn, inflight <-chan op, slots chan<- struct{}, win window, res *phaseResult) error {
	ks := c.ks
	var want []byte
	payload := make([]byte, valueBytes+2)
	for o := range inflight {
		res.attempted++
		cn.nc.SetReadDeadline(time.Now().Add(replyTimeout))
		line, err := cn.r.ReadSlice('\n')
		if err != nil {
			return fmt.Errorf("reply to %s: %w", ks.names[o.key], err)
		}
		ok := false
		switch {
		case o.kind == opSet && bytes.Equal(line, lineStored):
			ok = true
			ks.acked[o.key] = o.ver
		case o.kind == opSet:
			res.fail("set %s: %q", ks.names[o.key], bytes.TrimSpace(line))
		case bytes.HasPrefix(line, prefValue):
			n, perr := parseValueHeader(line, ks.names[o.key])
			if perr != nil {
				return fmt.Errorf("get %s: %w", ks.names[o.key], perr)
			}
			if n+2 > len(payload) {
				payload = make([]byte, n+2)
			}
			if _, err := io.ReadFull(cn.r, payload[:n+2]); err != nil {
				return fmt.Errorf("get %s payload: %w", ks.names[o.key], err)
			}
			end, err := cn.r.ReadSlice('\n')
			if err != nil {
				return fmt.Errorf("get %s end: %w", ks.names[o.key], err)
			}
			want = ks.value(o.key, o.ver, want)
			switch {
			case !bytes.Equal(end, lineEnd):
				return fmt.Errorf("get %s: unexpected %q after value", ks.names[o.key], end)
			case o.ver == 0 || !bytes.Equal(payload[:n], want):
				res.fail("get %s: value differs from version %d", ks.names[o.key], o.ver)
			default:
				ok = true
			}
		case bytes.Equal(line, lineEnd):
			res.fail("get %s: missing, want version %d", ks.names[o.key], o.ver)
		default:
			res.fail("get %s: %q", ks.names[o.key], bytes.TrimSpace(line))
		}
		now := time.Now()
		if ok && win.has(now) {
			rtt := now.Sub(o.sent).Nanoseconds()
			res.done++
			res.all = append(res.all, rtt)
			if o.kind == opGet {
				res.get = append(res.get, rtt)
			} else {
				res.set = append(res.set, rtt)
			}
		}
		slots <- struct{}{}
	}
	return nil
}

// replyTimeout bounds one reply wait; a server that stops answering
// without dying fails the run instead of hanging it.
const replyTimeout = 20 * time.Second

// parseValueHeader checks "VALUE <key> <flags> <bytes>\r\n" and returns
// the byte count.
func parseValueHeader(line, key []byte) (int, error) {
	f := bytes.Fields(line)
	if len(f) != 4 || !bytes.Equal(f[1], key) {
		return 0, fmt.Errorf("bad VALUE line %q", bytes.TrimSpace(line))
	}
	n, err := strconv.Atoi(string(f[3]))
	if err != nil || n < 0 || n > 1<<20 {
		return 0, fmt.Errorf("bad VALUE length in %q", bytes.TrimSpace(line))
	}
	return n, nil
}

// Op sources. Each connection walks or samples only its own keys.

// sequential yields op kind on every key owned by connection ci, once.
func sequential(ks *keyspace, conns int, kind opKind) func(ci int) opSource {
	return func(ci int) opSource {
		k := ci
		return func() (opKind, int, bool) {
			if k >= len(ks.names) {
				return 0, 0, false
			}
			cur := k
			k += conns
			return kind, cur, true
		}
	}
}

// mix yields an endless seeded stream: setPct percent sets, keys
// uniform over connection ci's share.
func mix(ks *keyspace, conns, setPct int, seed uint64) func(ci int) opSource {
	return func(ci int) opSource {
		x := splitmix64(seed ^ uint64(ci+1)*0x9e3779b97f4a7c15)
		owned := (len(ks.names) - ci + conns - 1) / conns
		return func() (opKind, int, bool) {
			x = splitmix64(x)
			kind := opGet
			if int(x%100) < setPct {
				kind = opSet
			}
			k := ci + conns*int((x>>32)%uint64(owned))
			return kind, k, true
		}
	}
}
