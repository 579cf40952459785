package server

import (
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
)

// registered returns the session the table maps id to, read under mu.
func registered(srv *Server, id int) *session {
	srv.mu.Lock()
	defer srv.mu.Unlock()
	return srv.sessions[id]
}

// checkSessionCount requires Metrics and Snapshot to agree with want.
func checkSessionCount(t *testing.T, srv *Server, want int) {
	t.Helper()
	if got := srv.Metrics().Sessions; got != want {
		t.Errorf("Metrics().Sessions = %d, want %d", got, want)
	}
	if got := len(srv.Snapshot().Apps); got != want {
		t.Errorf("len(Snapshot().Apps) = %d, want %d", got, want)
	}
}

// TestSessionTableBasics covers the session table's contract through
// register and finish: duplicate rejection while the first session is
// live, removal of only the finishing session, and re-registration of
// an ID after leave.
func TestSessionTableBasics(t *testing.T) {
	srv, err := New(Config{Policy: core.MaxSysEff(), TotalBW: 8, NodeBW: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Every session registered is finished before Close, so a failing
	// check cannot leave Close waiting on a live writer.
	var live []*session
	defer func() {
		for _, sess := range live {
			srv.finish(sess)
		}
		srv.Close() //nolint:errcheck
	}()
	register := func() (*session, error) {
		sess, err := srv.register(discardConn{}, &Message{Type: TypeHello, AppID: 7, Nodes: 2})
		if err == nil {
			live = append(live, sess)
		}
		return sess, err
	}

	a, err := register()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := register(); err == nil || !strings.Contains(err.Error(), "already connected") {
		t.Fatalf("duplicate register while live: err = %v, want already connected", err)
	}
	if registered(srv, 7) != a {
		t.Fatal("rejected duplicate changed the registration")
	}
	checkSessionCount(t, srv, 1)

	srv.finish(a)
	if registered(srv, 7) != nil {
		t.Fatal("finish left its session registered")
	}
	checkSessionCount(t, srv, 0)

	b, err := register()
	if err != nil {
		t.Fatalf("same ID after leave: %v", err)
	}
	// A finish that arrives for a session which no longer owns the ID
	// must not evict the successor.
	srv.finish(a)
	if registered(srv, 7) != b {
		t.Fatal("a stale session's finish evicted its successor")
	}
	checkSessionCount(t, srv, 1)
	srv.finish(b)
	checkSessionCount(t, srv, 0)
}

// TestSessionTableConcurrent runs register/request/finish cycles from
// eight goroutines over overlapping ID ranges. Under -race it checks
// that mu alone guards the table; the final counts check that no
// session was lost or removed by a goroutine that did not own it.
func TestSessionTableConcurrent(t *testing.T) {
	srv, err := New(Config{Policy: core.MaxSysEff(), TotalBW: 8, NodeBW: 1})
	if err != nil {
		t.Fatal(err)
	}

	const (
		workers = 8
		ids     = 32
		rounds  = 20
	)
	var (
		wg     sync.WaitGroup
		keep   []*session // winners of the final round
		keepMu sync.Mutex
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				for id := 1; id <= ids; id++ {
					sess, err := srv.register(discardConn{}, &Message{Type: TypeHello, AppID: id, Nodes: 1})
					if err != nil {
						if !strings.Contains(err.Error(), "already connected") {
							t.Errorf("register %d: %v", id, err)
							return
						}
						continue
					}
					if registered(srv, id) != sess {
						t.Error("registered session not visible under its ID")
						srv.finish(sess)
						return
					}
					if err := srv.dispatch(sess, &Message{Type: TypeRequest, Volume: 1, Work: 1, IdealTime: 1}); err != nil {
						t.Errorf("request %d: %v", id, err)
						srv.finish(sess)
						return
					}
					if round == rounds-1 {
						keepMu.Lock()
						keep = append(keep, sess)
						keepMu.Unlock()
						continue
					}
					srv.finish(sess)
				}
			}
		}()
	}
	wg.Wait()

	for _, sess := range keep {
		if registered(srv, sess.view.ID) != sess {
			t.Errorf("id %d: registered session is not the last-round winner", sess.view.ID)
		}
	}
	checkSessionCount(t, srv, len(keep))
	if got := srv.Metrics().Candidates; got != len(keep) {
		t.Errorf("candidates = %d, want the %d kept requesters", got, len(keep))
	}
	for _, sess := range keep {
		srv.finish(sess)
	}
	checkSessionCount(t, srv, 0)
	srv.Close() //nolint:errcheck
}

// TestSnapshotOrdersManySessions registers a few thousand sessions in
// shuffled ID order and requires Snapshot to list them by strictly
// ascending ID.
func TestSnapshotOrdersManySessions(t *testing.T) {
	srv, err := New(Config{Policy: core.MaxSysEff(), TotalBW: 8, NodeBW: 1})
	if err != nil {
		t.Fatal(err)
	}
	const n = 4000
	sessions := make([]*session, 0, n)
	defer func() {
		for _, sess := range sessions {
			srv.finish(sess)
		}
		srv.Close() //nolint:errcheck
	}()
	for _, id := range rand.New(rand.NewSource(1)).Perm(n) {
		sess, err := srv.register(discardConn{}, &Message{Type: TypeHello, AppID: id + 1, Nodes: 1})
		if err != nil {
			t.Fatal(err)
		}
		sessions = append(sessions, sess)
	}

	apps := srv.Snapshot().Apps
	if got := srv.Metrics().Sessions; len(apps) != got || got != n {
		t.Fatalf("len(Snapshot().Apps) = %d, Metrics().Sessions = %d, want %d", len(apps), got, n)
	}
	for i := 1; i < len(apps); i++ {
		if apps[i].ID <= apps[i-1].ID {
			t.Fatalf("Apps[%d].ID = %d after %d: not strictly ascending", i, apps[i].ID, apps[i-1].ID)
		}
	}
}
