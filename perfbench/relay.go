package main

import (
	"errors"
	"io"
	"net"
	"sort"
	"sync"
	"time"

	"repro/internal/fleet"
)

// relay sits on loopback between a fleet worker and the coordinator and
// forwards every frame through fleet.ReadFrame/WriteFrame, so the wire is
// observed from outside the program: it counts leases, candidates and
// bytes, times each lease's round trip from the moment it is forwarded to
// the worker until the worker's result arrives, and keeps the decoded
// frames so their codec cost can be measured after the run.
type relay struct {
	ln     net.Listener
	target string
	wg     sync.WaitGroup

	mu      sync.Mutex
	conns   []net.Conn
	leases  int
	cands   int
	bytes   int64
	sent    map[uint64]time.Time // lease ID -> forwarded to worker
	rtts    []time.Duration
	lastRes time.Time       // last result forwarded to the coordinator
	gaps    []time.Duration // result forwarded -> next lease from coordinator
	frames  []*fleet.Frame
}

func newRelay(target string) (*relay, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r := &relay{ln: ln, target: target, sent: map[uint64]time.Time{}}
	r.wg.Add(1)
	go r.accept()
	return r, nil
}

func (r *relay) addr() string { return r.ln.Addr().String() }

func (r *relay) accept() {
	defer r.wg.Done()
	for {
		w, err := r.ln.Accept()
		if err != nil {
			return // listener closed
		}
		c, err := net.Dial("tcp", r.target)
		if err != nil {
			w.Close()
			continue
		}
		r.mu.Lock()
		r.conns = append(r.conns, w, c)
		r.mu.Unlock()
		r.wg.Add(2)
		go r.pipe(w, c, true)
		go r.pipe(c, w, false)
	}
}

// countingReader counts the bytes ReadFrame consumes.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// pipe forwards frames from src to dst until either side closes; closing
// one direction closes both connections, ending the other pipe too.
func (r *relay) pipe(src, dst net.Conn, fromWorker bool) {
	defer r.wg.Done()
	defer src.Close()
	defer dst.Close()
	cr := &countingReader{r: src}
	for {
		f, err := fleet.ReadFrame(cr)
		if err != nil {
			return
		}
		now := time.Now()
		r.mu.Lock()
		r.bytes += cr.n
		cr.n = 0
		r.frames = append(r.frames, f)
		switch {
		case f.Type == fleet.FrameLease && !fromWorker:
			r.leases++
			r.cands += len(f.Lease.Candidates)
			r.sent[f.Lease.ID] = now
			if !r.lastRes.IsZero() {
				r.gaps = append(r.gaps, now.Sub(r.lastRes))
				r.lastRes = time.Time{}
			}
		case f.Type == fleet.FrameResult && fromWorker:
			if t0, ok := r.sent[f.Result.LeaseID]; ok {
				r.rtts = append(r.rtts, now.Sub(t0))
				delete(r.sent, f.Result.LeaseID)
			}
			r.lastRes = now
		}
		r.mu.Unlock()
		if err := fleet.WriteFrame(dst, f); err != nil {
			return
		}
	}
}

// close stops accepting, drops every forwarded connection and waits for
// all relay goroutines to exit.
func (r *relay) close() {
	r.ln.Close()
	r.mu.Lock()
	for _, c := range r.conns {
		c.Close()
	}
	r.mu.Unlock()
	r.wg.Wait()
}

// codecSeconds re-encodes and decodes every captured frame with
// fleet.EncodeFrame/DecodeFrame and returns the time spent.
func (r *relay) codecSeconds() (float64, error) {
	t0 := time.Now()
	for _, f := range r.frames {
		b, err := fleet.EncodeFrame(f)
		if err != nil {
			return 0, err
		}
		if _, err := fleet.DecodeFrame(b); err != nil {
			return 0, err
		}
	}
	if len(r.frames) == 0 {
		return 0, errors.New("relay captured no frames")
	}
	return time.Since(t0).Seconds(), nil
}

// quantileMS returns the q-quantile of ds in milliseconds (nearest rank).
func quantileMS(ds []time.Duration, q float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return float64(s[rank(len(s), q)]) / 1e6
}

// rank is the nearest-rank index of the q-quantile among n sorted values.
func rank(n int, q float64) int {
	i := int(q*float64(n)+0.5) - 1
	return min(max(i, 0), n-1)
}
