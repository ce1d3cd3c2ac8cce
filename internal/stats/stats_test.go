package stats

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestCountersBasics(t *testing.T) {
	c := NewCounters()
	c.Add("a", 1)
	c.Add("a", 2)
	c.Add("b", 5)
	if c.Get("a") != 3 || c.Get("b") != 5 || c.Get("missing") != 0 {
		t.Fatalf("values: a=%d b=%d", c.Get("a"), c.Get("b"))
	}
	names := c.Names()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("names = %v", names)
	}
}

func TestCountersMerge(t *testing.T) {
	a, b := NewCounters(), NewCounters()
	a.Add("x", 1)
	b.Add("x", 2)
	b.Add("y", 3)
	a.Merge(b)
	if a.Get("x") != 3 || a.Get("y") != 3 {
		t.Fatalf("merged: x=%d y=%d", a.Get("x"), a.Get("y"))
	}
	if b.Get("x") != 2 {
		t.Fatal("merge mutated source")
	}
}

func TestSnapshotIsACopy(t *testing.T) {
	c := NewCounters()
	c.Add("k", 7)
	snap := c.Snapshot()
	snap["k"] = 99
	if c.Get("k") != 7 {
		t.Fatal("snapshot aliases the counter map")
	}
}

func TestTableRender(t *testing.T) {
	tab := &Table{
		Title:  "demo",
		Header: []string{"name", "value"},
	}
	tab.AddRow("short", "1")
	tab.AddRow("a-much-longer-name", "23456")
	var b strings.Builder
	if err := tab.Render(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "demo") {
		t.Errorf("missing title: %q", lines[0])
	}
	// All data rows align: the value column starts at the same offset.
	idx := strings.Index(lines[1], "value")
	for _, ln := range lines[3:] {
		if len(ln) < idx {
			t.Errorf("row too short: %q", ln)
		}
	}
	if !strings.Contains(out, "-----") {
		t.Error("missing rule line")
	}
}

func TestFormatters(t *testing.T) {
	if F(1.23456) != "1.235" {
		t.Errorf("F = %q", F(1.23456))
	}
	if D(42) != "42" {
		t.Errorf("D = %q", D(42))
	}
}

// Property: merge is additive for any pair of counter sets.
func TestMergeProperty(t *testing.T) {
	f := func(av, bv []uint8) bool {
		a, b := NewCounters(), NewCounters()
		var sum uint64
		for _, v := range av {
			a.Add("k", uint64(v))
			sum += uint64(v)
		}
		for _, v := range bv {
			b.Add("k", uint64(v))
			sum += uint64(v)
		}
		a.Merge(b)
		return a.Get("k") == sum
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestTableRenderWideRow is the regression test for the writeRow panic:
// a row carrying more cells than the header must render (extra cells
// unpadded), not index past the widths slice.
func TestTableRenderWideRow(t *testing.T) {
	tab := &Table{
		Header: []string{"a", "b"},
	}
	tab.AddRow("1", "2", "3-beyond-the-header", "4")
	tab.AddRow("5")
	var b strings.Builder
	if err := tab.Render(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"3-beyond-the-header", "4", "5"} {
		if !strings.Contains(out, want) {
			t.Errorf("render dropped cell %q:\n%s", want, out)
		}
	}
}

// TestCountersZeroValue pins that the zero value of Counters is usable:
// Add, Merge, Get, Names, and Snapshot all work without NewCounters.
func TestCountersZeroValue(t *testing.T) {
	var c Counters
	if c.Get("x") != 0 {
		t.Fatal("Get on zero value")
	}
	c.Add("x", 1)
	c.Add("x", 2)
	if c.Get("x") != 3 {
		t.Fatalf("x = %d, want 3", c.Get("x"))
	}

	var dst Counters
	src := NewCounters()
	src.Add("y", 5)
	dst.Merge(src)
	if dst.Get("y") != 5 {
		t.Fatalf("merged y = %d, want 5", dst.Get("y"))
	}

	var empty Counters
	if len(empty.Names()) != 0 || len(empty.Snapshot()) != 0 {
		t.Fatal("zero value should enumerate as empty")
	}
	empty.Merge(&Counters{}) // merging two zero values must not panic
}

// TestDigestIsFNV1a: Digest is hash/fnv's 64-bit FNV-1a over the words'
// little-endian bytes, empty and after a few hundred random words.
func TestDigestIsFNV1a(t *testing.T) {
	d, ref := NewDigest(), fnv.New64a()
	if uint64(d) != ref.Sum64() {
		t.Fatalf("empty digest %#x, want %#x", uint64(d), ref.Sum64())
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 300; i++ {
		v := rng.Uint64()
		d.Word(v)
		ref.Write(binary.LittleEndian.AppendUint64(nil, v))
		if uint64(d) != ref.Sum64() {
			t.Fatalf("after word %d (%#x): digest %#x, want %#x", i, v, uint64(d), ref.Sum64())
		}
	}
}
