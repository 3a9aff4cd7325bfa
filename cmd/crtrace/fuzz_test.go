package main

import (
	"bytes"
	"io"
	"os"
	"testing"

	"github.com/uwb-sim/concurrent-ranging/internal/obs/trace"
)

// FuzzTriage feeds arbitrary bytes through the trace reader; a stream the
// reader accepts then goes through everything crtrace does with it —
// round triage and its accessors, the swarm tally and the Chrome export —
// none of which may panic, whatever the attributes hold.
func FuzzTriage(f *testing.F) {
	fixture, err := os.ReadFile("testdata/triage.jsonl")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(fixture)
	for _, cut := range []int{1, 40, len(fixture) / 3, len(fixture) / 2, len(fixture) - 2} {
		f.Add(fixture[:cut])
	}
	for _, s := range []string{
		"",
		`{"seq":1,"ts":0.001,"span":1,"ph":"B","name":"session.round","attrs":{"truth":"nope"}}`,
		`{"seq":1,"ts":0.001,"span":1,"ph":"B","name":"session.round","attrs":{"truth":[{"id":"x"}]}}` + "\n" +
			`{"seq":2,"ts":0.002,"span":1,"ph":"E","attrs":{"measurements":[{"id":0,"dist_m":"far"}]}}`,
		`{"seq":1,"ts":0.001,"span":7,"ph":"B","name":"swarm.round","attrs":{"node":3}}` + "\n" +
			`{"seq":2,"ts":0.002,"span":7,"ph":"E","attrs":{"status":5,"responses":"two"}}`,
		`{"seq":1,"ts":0.001,"span":2,"parent":9,"ph":"B","name":"detect"}` + "\n" +
			`{"seq":2,"ts":0.002,"span":2,"ph":"i","name":"detect.round","attrs":{"scores":[1,"x"]}}`,
		`{"seq":1,"ts":0.001,"span":1,"ph":"E"}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		events, err := trace.ReadEvents(bytes.NewReader(data))
		if err != nil {
			return
		}
		tri := RunTriage(events, 1.0)
		for _, class := range tri.Classes() {
			_ = tri.ByClass(class)
		}
		if tri.FailureCount() < 0 {
			t.Fatalf("negative failure count %d", tri.FailureCount())
		}
		CollectSwarm(events).Statuses()
		_ = trace.WriteChromeTrace(io.Discard, events)
	})
}
