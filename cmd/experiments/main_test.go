package main

import (
	"flag"
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestAllFlagsRegistered asserts registerFlags declares the complete flag
// surface the tooling depends on.
func TestAllFlagsRegistered(t *testing.T) {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	o := registerFlags(fs)
	for _, name := range []string{
		"all", "scaling", "fig7", "fig8", "fig11", "table2", "table3",
		"ablations", "fault", "fault-spec", "elastic", "trace-overhead", "sensorfault", "movement",
		"sensor-fault-spec", "repartition-threshold", "workers",
		"cpuprofile", "memprofile", "obs-addr", "trace", "obs-seed",
		"weak-scaling", "weak-ranks", "group-size", "csv",
	} {
		if fs.Lookup(name) == nil {
			t.Errorf("flag -%s not registered", name)
		}
	}
	if o.all == nil || o.obsAddr == nil || o.trace == nil {
		t.Fatal("options not bound")
	}
}

// TestDocumentedFlagsExist scans EXPERIMENTS.md and README.md for
// `go run ./cmd/experiments -flag ...` invocations and checks that every
// flag the docs mention is actually registered.
func TestDocumentedFlagsExist(t *testing.T) {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	registerFlags(fs)
	invocation := regexp.MustCompile(`go run \./cmd/experiments([^\n` + "`" + `]*)`)
	flagTok := regexp.MustCompile(`-([a-z][a-z0-9-]*)`)
	for _, doc := range []string{"../../EXPERIMENTS.md", "../../README.md"} {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range invocation.FindAllStringSubmatch(string(data), -1) {
			args, _, _ := strings.Cut(m[1], "#") // drop shell comments
			for _, f := range flagTok.FindAllStringSubmatch(args, -1) {
				if fs.Lookup(f[1]) == nil {
					t.Errorf("%s documents unknown flag -%s (in %q)",
						strings.TrimPrefix(doc, "../../"), f[1], strings.TrimSpace(m[0]))
				}
			}
		}
	}
}
