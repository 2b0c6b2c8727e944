package transport

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/vclock"
)

var updateMessageFixture = flag.Bool("update", false, "rewrite testdata/message_clock.json")

// TestMessageClockJSON pins the wire JSON of messages with an empty and a
// non-empty vector clock to a fixture generated by the original map-backed
// clock: the empty clock stays omitted, the non-empty one renders as a
// sorted JSON object, and both decode back to the same clock.
func TestMessageClockJSON(t *testing.T) {
	clock := vclock.New()
	clock.Tick("node-b")
	clock.Set("node-a", 12)
	clock.Tick("node-c")
	cases := []struct {
		name string
		msg  Message
	}{
		{"empty", Message{ID: "m1", From: "node-a", To: "node-b", Payload: []byte("x"), Lamport: 3, Clock: vclock.New()}},
		{"zero-value", Message{From: "node-a", To: "node-b", Lamport: 4}},
		{"non-empty", Message{ID: "m2", From: "node-c", To: "node-a", Payload: []byte("yz"), Lamport: 9, Clock: clock, Epoch: 2}},
	}
	got := map[string]string{}
	for _, c := range cases {
		b, err := json.Marshal(c.msg)
		if err != nil {
			t.Fatal(err)
		}
		got[c.name] = string(b)
		var back Message
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if back.Clock.Compare(c.msg.Clock) != vclock.Equal || back.Clock.String() != c.msg.Clock.String() {
			t.Errorf("%s: clock round-tripped to %v, want %v", c.name, back.Clock, c.msg.Clock)
		}
	}
	raw, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	raw = append(raw, '\n')
	path := filepath.Join("testdata", "message_clock.json")
	if *updateMessageFixture {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(raw) != string(want) {
		t.Fatalf("message JSON drifted:\n got: %s\nwant: %s", raw, want)
	}
}
