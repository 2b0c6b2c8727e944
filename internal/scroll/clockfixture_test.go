package scroll

import (
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/vclock"
)

var updateClockFixture = flag.Bool("update", false, "rewrite testdata/clock_identity.json")

// clockCase is one hand-built clock of the byte-identity fixture. The
// cases are built only through New/Set/Tick/Merge, so the same code drives
// every clock representation the fixture has to keep agreeing with.
type clockCase struct {
	name  string
	clock vclock.VC
}

func clockCases() []clockCase {
	var zero vclock.VC

	single := vclock.New()
	single.Set("node-1", 7)

	outOfOrder := vclock.New()
	outOfOrder.Tick("zeta")
	outOfOrder.Tick("alpha")
	outOfOrder.Set("mid", 300)
	outOfOrder.Tick("alpha")
	outOfOrder.Tick("beta")

	many := vclock.New()
	for i := 11; i >= 0; i-- { // reverse insertion order
		many.Set(fmt.Sprintf("p%02d", i), uint64(i*i+1))
	}
	many.Set("big", 1<<40) // multi-byte uvarint

	merged := vclock.New()
	merged.Set("a", 3)
	merged.Set("b", 1)
	other := vclock.New()
	other.Set("c", 2)
	other.Set("b", 4)
	merged.Merge(other)

	return []clockCase{
		{"empty", vclock.New()},
		{"zero-value", zero},
		{"single", single},
		{"out-of-order", outOfOrder},
		{"many", many},
		{"merged", merged},
	}
}

// clockFixture is the committed form of the clock byte-identity pins.
type clockFixture struct {
	Records []clockFixtureRecord `json:"records"`
	Digest  string               `json:"digest"`
}

type clockFixtureRecord struct {
	Name    string `json:"name"`
	String  string `json:"string"`
	V       string `json:"v"`
	RecordV string `json:"record_v"`
	Encoded string `json:"encoded"`
}

func buildClockFixture() clockFixture {
	var fx clockFixture
	var recs []Record
	for i, c := range clockCases() {
		r := Record{
			Proc: "p", Seq: uint64(i), Kind: KindRecv, MsgID: fmt.Sprintf("m%d", i),
			Peer: "q", Payload: []byte{byte(i), 0xff}, Lamport: uint64(10 + i), Clock: c.clock,
		}
		recs = append(recs, r)
		fx.Records = append(fx.Records, clockFixtureRecord{
			Name:    c.name,
			String:  c.clock.String(),
			V:       fmt.Sprintf("%v", c.clock),
			RecordV: fmt.Sprintf("%+v", r),
			Encoded: hex.EncodeToString(r.encode()),
		})
	}
	fx.Digest = Digest(recs)
	return fx
}

// TestClockByteIdentity pins the scroll encoding, digest and renderings of
// hand-built clocks to a fixture generated by the original map-backed
// clock, so a change of representation cannot move a byte. Regenerate only
// deliberately, with -update.
func TestClockByteIdentity(t *testing.T) {
	path := filepath.Join("testdata", "clock_identity.json")
	got, err := json.MarshalIndent(buildClockFixture(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	if *updateClockFixture {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("clock fixture drifted:\n got: %s\nwant: %s", got, want)
	}
	// Decoding the pinned bytes and re-encoding them is the identity too.
	var fx clockFixture
	if err := json.Unmarshal(want, &fx); err != nil {
		t.Fatal(err)
	}
	for _, fr := range fx.Records {
		b, err := hex.DecodeString(fr.Encoded)
		if err != nil {
			t.Fatal(err)
		}
		r, err := decodeRecord(b)
		if err != nil {
			t.Fatalf("%s: decode: %v", fr.Name, err)
		}
		if re := hex.EncodeToString(r.encode()); re != fr.Encoded {
			t.Errorf("%s: re-encoded %s, want %s", fr.Name, re, fr.Encoded)
		}
		if s := r.Clock.String(); s != fr.String {
			t.Errorf("%s: decoded clock renders %s, want %s", fr.Name, s, fr.String)
		}
	}
}
