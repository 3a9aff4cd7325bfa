package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// FuzzReportcheck feeds arbitrary bytes to the report checks as a report
// file: check, requireEngineProfile and compare (the file against itself)
// must each return an error or nil, never panic.
func FuzzReportcheck(f *testing.F) {
	valid, err := json.Marshal(liveReport())
	if err != nil {
		f.Fatal(err)
	}
	profiled := liveReport()
	profiled.Experiments[0].EngineParallelEfficiency = 0.7
	withProfile, err := json.Marshal(profiled)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(withProfile)
	f.Add(valid[:len(valid)/2])
	path := filepath.Join(f.TempDir(), "report.json")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		_ = check(path)
		_ = requireEngineProfile(path, 0.5)
		_ = compare(path, path, 1.5, 5)
	})
}
