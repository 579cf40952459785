package server

import (
	"net"
	"testing"
	"time"

	"repro/internal/core"
)

func TestClientProgressNarrowsRemVolume(t *testing.T) {
	srv, addr := startServer(t, core.MaxSysEff())
	c, err := Dial(addr, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.RequestIO(40, 10, 12); err != nil {
		t.Fatal(err)
	}
	if _, err := c.WaitForBandwidth(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := c.Progress(10); err != nil {
		t.Fatal(err)
	}
	// Progress is applied asynchronously; poll the server's view.
	deadline := time.Now().Add(2 * time.Second)
	for {
		srv.mu.Lock()
		var rem float64 = -1
		if sess := srv.sessions[1]; sess != nil {
			rem = sess.view.RemVolume
		}
		srv.mu.Unlock()
		if rem == 10 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never applied progress: remaining = %g", rem)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Progress may only narrow, never widen.
	if err := c.Progress(35); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	srv.mu.Lock()
	rem := srv.sessions[1].view.RemVolume
	srv.mu.Unlock()
	if rem != 10 {
		t.Errorf("progress widened remaining volume to %g", rem)
	}
}

// TestRequestDiscardsPreviousGrant: WaitForBandwidth right after a fresh
// RequestIO must wait for that request's verdict, not return the previous
// phase's stale bandwidth (the server pushes nothing at complete, so the
// client discards its grant state when requesting).
func TestRequestDiscardsPreviousGrant(t *testing.T) {
	_, addr := startServer(t, core.MaxSysEff())
	c, err := Dial(addr, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.RequestIO(40, 10, 12); err != nil {
		t.Fatal(err)
	}
	if _, err := c.WaitForBandwidth(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := c.CompleteIO(); err != nil {
		t.Fatal(err)
	}
	if err := c.RequestIO(40, 10, 12); err != nil {
		t.Fatal(err)
	}
	if _, err := c.WaitForBandwidth(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	// The second wait must have been satisfied by the second phase's
	// grant (seq 2), not the first phase's remembered value.
	if got := c.Seq(); got != 2 {
		t.Errorf("after second phase's wait, applied seq = %d, want 2", got)
	}
}

func TestWaitForBandwidthTimesOut(t *testing.T) {
	_, addr := startServer(t, core.MaxSysEff())
	c, err := Dial(addr, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// No request made: no grant will ever arrive.
	if _, err := c.WaitForBandwidth(50 * time.Millisecond); err == nil {
		t.Error("WaitForBandwidth returned without a grant")
	}
}

func TestClientLastBWTracksGrants(t *testing.T) {
	_, addr := startServer(t, core.MaxSysEff())
	c, err := Dial(addr, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if got := c.LastBW(); got != 0 {
		t.Errorf("initial LastBW = %g", got)
	}
	if err := c.RequestIO(40, 10, 12); err != nil {
		t.Fatal(err)
	}
	bw, err := c.WaitForBandwidth(2 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.LastBW(); got != bw {
		t.Errorf("LastBW = %g, want %g", got, bw)
	}
}

func TestWakerPolicyPromotesStalledClient(t *testing.T) {
	// Timeout-wrapped policy on the daemon: a stalled client must be
	// re-granted by the timer without waiting for any I/O event.
	srv, err := New(Config{
		Policy:  core.NewTimeout(core.MaxSysEff(), 0.05),
		TotalBW: 10,
		NodeBW:  1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln) //nolint:errcheck
	defer srv.Close()
	addr := ln.Addr().String()

	hog, err := Dial(addr, 1, 10) // card 10 = B: takes everything
	if err != nil {
		t.Fatal(err)
	}
	defer hog.Close()
	if err := hog.RequestIO(1000, 1, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := hog.WaitForBandwidth(2 * time.Second); err != nil {
		t.Fatal(err)
	}

	starved, err := Dial(addr, 2, 10)
	if err != nil {
		t.Fatal(err)
	}
	defer starved.Close()
	if err := starved.RequestIO(10, 1, 2); err != nil {
		t.Fatal(err)
	}
	// The hog never completes; only the timer can promote the starved
	// client past it.
	bw, err := starved.WaitForBandwidth(3 * time.Second)
	if err != nil {
		t.Fatalf("starved client never promoted: %v", err)
	}
	if bw <= 0 {
		t.Errorf("promoted with bw = %g", bw)
	}
}

func TestServerCloseDisconnectsClients(t *testing.T) {
	srv, addr := startServer(t, core.MaxSysEff())
	c, err := Dial(addr, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	// The grant channel must close once the connection drops.
	select {
	case _, ok := <-c.Grants():
		if ok {
			t.Error("got a grant from a closed server")
		}
	case <-time.After(2 * time.Second):
		t.Error("grant channel never closed after server shutdown")
	}
	if err := srv.Close(); err != nil {
		t.Errorf("second Close errored: %v", err)
	}
}
