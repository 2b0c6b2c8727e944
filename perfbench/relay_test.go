package main

import (
	"context"
	"encoding/json"
	"testing"

	"repro/internal/apps"
	"repro/internal/chaos"
	"repro/internal/fleet"
)

// TestRelayIsTransparent runs a small fleet search through the frame relay
// and checks that the report is the in-process search's and that the
// relay saw every lease and candidate.
func TestRelayIsTransparent(t *testing.T) {
	cfg := fleet.Config{
		Search:          chaos.SearchConfig{Apps: apps.Registry()[:2], Seed: 3, Budget: 24, CheckEvery: 256},
		NoLocalFallback: true,
	}
	coord, err := fleet.NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	rl, err := newRelay(coord.Addr())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- (&fleet.Worker{Join: rl.addr()}).Run(ctx) }()
	rep, err := coord.Run()
	cancel()
	<-done
	rl.close()
	if err != nil {
		t.Fatal(err)
	}
	got, _ := json.Marshal(rep)
	want, _ := json.Marshal(chaos.Search(cfg.Search))
	if string(got) != string(want) {
		t.Fatal("fleet report through the relay differs from chaos.Search")
	}
	if rl.cands != 2*24 || rl.leases == 0 || len(rl.rtts) != rl.leases {
		t.Fatalf("relay saw %d candidates in %d leases with %d round trips; want 48 candidates and one round trip per lease",
			rl.cands, rl.leases, len(rl.rtts))
	}
	if _, err := rl.codecSeconds(); err != nil {
		t.Fatal(err)
	}
}
