package cliflags

import (
	"flag"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// allGroups is characterize's registration, the widest of the commands.
var allGroups = []Group{Faults, Pool, Sweep, Fleet}

// parse registers every group on a fresh FlagSet and parses args — the
// path every campaign command takes before Config.
func parse(t *testing.T, args ...string) *Campaign {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	c := Register(fs, allGroups...)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parse %v: %v", args, err)
	}
	return c
}

func TestConfigFleetValidation(t *testing.T) {
	cases := []struct {
		args    []string
		wantErr string
	}{
		{args: nil},
		{args: []string{"-fleet-size", "100"}},
		{args: []string{"-fleet-size", "100", "-shards", "8", "-jitter-profile", "tight"}},
		{args: []string{"-fleet-size", "100", "-jitter-profile", "corevolt:0.05,meter:0.02"}},
		{args: []string{"-fleet-size", "100", "-checkpoint", "f.journal", "-repetitions", "1", "-min-valid", "0"}},
		{args: []string{"-fleet-size", "-1"}, wantErr: "-fleet-size"},
		{args: []string{"-shards", "0"}, wantErr: "-shards"},
		{args: []string{"-fleet-size", "10", "-shards", "0"}, wantErr: "-shards"},
		{args: []string{"-shards", "4"}, wantErr: "require -fleet-size"},
		{args: []string{"-jitter-profile", "tight"}, wantErr: "require -fleet-size"},
		{args: []string{"-fleet-size", "10", "-jitter-profile", "bogus:0.1"}, wantErr: "unknown"},
		{args: []string{"-fleet-size", "10", "-jitter-profile", "corevolt:1.5"}, wantErr: "[0, 1]"},
		// A fleet runs once and is not triaged.
		{args: []string{"-fleet-size", "8", "-repetitions", "2"}, wantErr: "fleet campaigns"},
		{args: []string{"-fleet-size", "8", "-min-valid", "1"}, wantErr: "fleet campaigns"},
		{args: []string{"-fleet-size", "8", "-triage-out", "f.json"}, wantErr: "fleet campaigns"},
	}
	for _, c := range cases {
		camp := parse(t, c.args...)
		cfg, err := camp.Config()
		if c.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("Config(%v) err = %v, want containing %q", c.args, err, c.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("Config(%v): %v", c.args, err)
			continue
		}
		if camp.FleetSize >= 1 {
			if cfg.FleetSize != camp.FleetSize || cfg.FleetShards != camp.Shards || cfg.FleetJitter != camp.JitterProfile {
				t.Errorf("Config(%v) did not thread fleet fields: %+v", c.args, cfg)
			}
		} else if cfg.FleetSize != 0 {
			t.Errorf("Config(%v) set FleetSize %d without the flag", c.args, cfg.FleetSize)
		}
	}
}

// campaignFlags pins every campaign flag's default and help text.
var campaignFlags = map[string][2]string{
	"seed":           {"42", "measurement-noise seed"},
	"nocache":        {"false", "disable launch memoization (uncached reference mode; output is identical either way)"},
	"faults":         {"", `fault-injection profile, e.g. "launch.hang:0.02,meter.drop:0.001" (empty: fault-free)`},
	"launch-timeout": {"5s", "per-run watchdog deadline for hung launches"},
	"workers":        {strconv.Itoa(runtime.GOMAXPROCS(0)), "pool width of the sweeps, collections and modeling fits; 1 is the bit-exact sequential reference (output is identical at any width)"},
	"max-retries":    {"3", "transient-fault retry budget per boot/clock-set/metered run"},
	"progress":       {"false", "print a periodic one-line campaign status to stderr (implies instrumentation)"},
	"triage-out":     {"", "write the machine-readable validity-triage report (JSON) to this path, e.g. reports/baseline.json"},
	"checkpoint":     {"", "journal completed characterization sweep cells to this path and resume from it (modeling collections are not journaled)"},
	"repetitions":    {"1", "repetition-cohort size: run each characterization sweep N times with independent noise/fault streams and triage every cell on cross-repetition agreement (1: classic single run)"},
	"min-valid":      {"0", "publishability floor in valid repetitions per cell (0: every repetition must be valid)"},
	"fleet-size":     {"0", "run a fleet campaign over N jittered devices generated from the board set (0: the classic per-board campaign)"},
	"shards":         {"1", "partition fleet devices across N shard pipelines, each with its own checkpoint journal (the report is byte-identical at any shard count)"},
	"jitter-profile": {"", `per-device parameter spread for fleet campaigns: a preset (default, none, tight, loose) or "key:fraction" pairs, e.g. "corevolt:0.03,leak:0.08"`},
	"trace-out":      {"", "write a Chrome/Perfetto trace of the campaign to this path"},
	"metrics-out":    {"", "write Prometheus-style metrics exposition to this path"},
	"events-out":     {"", "write the raw instrumentation events as JSONL to this path"},
	"cpuprofile":     {"", "write a pprof CPU profile of the campaign to this path"},
	"memprofile":     {"", "write a pprof heap profile at campaign exit to this path"},
}

// TestRegisterGroups: the core flags and each group register exactly
// their flags, under the names, defaults and help text pinned above, so
// a command accepts only the flags it acts on.
func TestRegisterGroups(t *testing.T) {
	core := []string{"cpuprofile", "events-out", "memprofile", "metrics-out", "nocache", "seed", "trace-out"}
	cases := []struct {
		name   string
		groups []Group
		extra  []string
	}{
		{"core", nil, nil},
		{"Faults", []Group{Faults}, []string{"faults", "launch-timeout"}},
		{"Pool", []Group{Pool}, []string{"max-retries", "progress", "triage-out", "workers"}},
		{"Sweep", []Group{Sweep}, []string{"checkpoint", "min-valid", "repetitions"}},
		{"Fleet", []Group{Fleet}, []string{"fleet-size", "jitter-profile", "shards"}},
	}
	total := 0
	for _, c := range cases {
		fs := flag.NewFlagSet(c.name, flag.ContinueOnError)
		Register(fs, c.groups...)
		var got []string
		fs.VisitAll(func(f *flag.Flag) {
			got = append(got, f.Name)
			want, ok := campaignFlags[f.Name]
			if !ok {
				t.Errorf("%s: unexpected flag -%s", c.name, f.Name)
				return
			}
			if f.DefValue != want[0] || f.Usage != want[1] {
				t.Errorf("%s: -%s default %q usage %q, want %q %q", c.name, f.Name, f.DefValue, f.Usage, want[0], want[1])
			}
		})
		want := append(append([]string(nil), core...), c.extra...)
		sort.Strings(want)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s registers %v, want %v", c.name, got, want)
		}
		total += len(c.extra)
	}
	if total+len(core) != len(campaignFlags) {
		t.Errorf("groups cover %d flags, want all %d", total+len(core), len(campaignFlags))
	}
}

// TestUnregisteredFlagsKeepDefaults: a command that registers fewer
// groups builds the same session.Config as one registering them all and
// given no flags, so dropping a group never moves a default.
func TestUnregisteredFlagsKeepDefaults(t *testing.T) {
	want, err := parse(t).Config("GTX 680")
	if err != nil {
		t.Fatal(err)
	}
	for _, groups := range [][]Group{nil, {Faults}, {Faults, Pool}, {Faults, Pool, Sweep}} {
		got, err := Register(flag.NewFlagSet("test", flag.ContinueOnError), groups...).Config("GTX 680")
		if err != nil {
			t.Fatalf("groups %v: %v", groups, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("groups %v: Config = %+v, want %+v", groups, got, want)
		}
	}
}
