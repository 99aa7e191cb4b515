// Command wmtool embeds, detects, and attacks categorical watermarks in
// CSV relations — the operational face of the library.
//
// Usage:
//
//	wmtool embed   -in data.csv -schema SPEC -attr A -wm BITS -k1 S1 -k2 S2 -e N -out marked.csv
//	wmtool detect  -in marked.csv -schema SPEC -attr A -wmlen N -k1 S1 -k2 S2 -e N [-bandwidth B]
//	wmtool verify  -in suspect.csv -schema SPEC -record cert.json | -records a.json,b.json,c.json
//	wmtool attack  -in marked.csv -schema SPEC -type T [-frac F] [-attr A] [-seed S] -out attacked.csv
//	wmtool analyze [-n N] [-e E] [-a A] [-p P] [-r R] [-theta T]
//	wmtool audit   -server URL -in suspect.csv -schema SPEC [-records id1,id2] [-nowait] [-json] [-trace]
//	wmtool loglevel -server URL [debug|info|warn|error]
//	wmtool serve   [-addr :8080] [-store DIR] [-workers N] [-scanner-cache N] [-job-workers N]
//
// SPEC is the schema grammar of internal/relation, e.g.
// "Visit_Nbr:int!key, Item_Nbr:int:categorical". Attack types: subset,
// addition, alteration, shuffle, sort, remap.
//
// embed, detect, watermark and verify accept -parallel N to run the
// chunked worker pool of internal/pipeline (1 = sequential, 0 = NumCPU;
// a count above NumCPU runs NumCPU workers);
// verify -records checks a suspect against many certificates in ONE
// streaming scan; serve runs the wmserver HTTP API in-process.
//
// Remote mode: watermark and verify accept -server URL to run against a
// live wmserver through the internal/client SDK instead of locally — the
// certificate then lives in the server's store and is addressed by ID
// (watermark prints it; verify's -record / -records then take stored IDs,
// the suspect streaming from disk to the server's detection pipeline). audit
// is remote-only: it submits an async batch-verification job
// (POST /v2/jobs), polls it to completion, and prints the
// per-certificate reports.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"strings"
	"time"

	"runtime"
	"runtime/pprof"

	"repro/internal/analysis"
	"repro/internal/api"
	"repro/internal/attacks"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/ecc"
	"repro/internal/keyhash"
	"repro/internal/mark"
	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/pipeline"
	"repro/internal/relation"
	"repro/internal/server"
	"repro/internal/stats"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "embed":
		err = cmdEmbed(os.Args[2:])
	case "detect":
		err = cmdDetect(os.Args[2:])
	case "watermark":
		err = cmdWatermark(os.Args[2:])
	case "verify":
		err = cmdVerify(os.Args[2:])
	case "attack":
		err = cmdAttack(os.Args[2:])
	case "analyze":
		err = cmdAnalyze(os.Args[2:])
	case "audit":
		err = cmdAudit(os.Args[2:])
	case "kernels":
		err = cmdKernels(os.Args[2:])
	case "loglevel":
		err = cmdLogLevel(os.Args[2:])
	case "serve":
		err = cmdServe(os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "wmtool: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "wmtool:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `wmtool — categorical data watermarking (Sion, ICDE 2004)

commands:
  watermark  embed and save a watermark certificate (recommended flow)
  verify     verify a suspect CSV against a certificate
  embed      low-level: watermark with explicit keys/parameters
  detect     low-level: blindly recover a watermark
  attack     apply an adversary-model attack (A1-A6)
  analyze    Section 4.4 vulnerability mathematics
  audit      submit an async corpus audit to a wmserver and await the verdicts
  kernels    list the batched hash backends, their measured speeds and the auto pick
  loglevel   read or set a running wmserver's log level without a restart
  serve      run the wmserver HTTP API in-process

watermark and verify accept -server URL to run against a live wmserver
(certificates stored server-side, addressed by ID).

run 'wmtool <command> -h' for flags`)
}

// loadDomain reads a value catalog: one value per line, blank lines
// ignored. Detection after data-loss attacks must use the attribute's
// catalog, not the values surviving in the data — a subset attack that
// removes all occurrences of a value would otherwise shift every index
// after it and scramble the parity channel.
func loadDomain(path string) (*relation.Domain, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var values []string
	for _, line := range strings.Split(string(data), "\n") {
		if line = strings.TrimRight(line, "\r"); line != "" {
			values = append(values, line)
		}
	}
	return relation.NewDomain(values)
}

func loadRelation(path, spec string) (*relation.Relation, error) {
	schema, err := relation.ParseSchemaSpec(spec)
	if err != nil {
		return nil, err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return relation.ReadCSV(f, schema)
}

// profiler backs the -cpuprofile/-memprofile flags on the scan-heavy
// commands (verify, audit) — the CLI counterpart of wmserver's -pprof
// endpoints, for profiling a one-shot scan without standing up a server.
type profiler struct {
	cpu, mem string
	cpuFile  *os.File
}

// addProfileFlags registers the profiling flags on fs.
func addProfileFlags(fs *flag.FlagSet) *profiler {
	p := &profiler{}
	fs.StringVar(&p.cpu, "cpuprofile", "", "write a CPU profile of this command to the given file (inspect with go tool pprof)")
	fs.StringVar(&p.mem, "memprofile", "", "write an allocation profile, taken at command exit, to the given file")
	return p
}

// start begins CPU profiling if requested. Call stop before exiting.
func (p *profiler) start() error {
	if p.cpu == "" {
		return nil
	}
	f, err := os.Create(p.cpu)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return err
	}
	p.cpuFile = f
	return nil
}

// stop flushes the requested profiles. Profile-write failures must not
// change the command's verdict or exit code, so they are reported on
// stderr rather than returned.
func (p *profiler) stop() {
	if p.cpuFile != nil {
		pprof.StopCPUProfile()
		if err := p.cpuFile.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "wmtool: cpuprofile:", err)
		}
		p.cpuFile = nil
	}
	if p.mem == "" {
		return
	}
	f, err := os.Create(p.mem)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wmtool: memprofile:", err)
		return
	}
	runtime.GC() // materialize the final live set before snapshotting
	if err := pprof.WriteHeapProfile(f); err != nil {
		fmt.Fprintln(os.Stderr, "wmtool: memprofile:", err)
	}
	if err := f.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "wmtool: memprofile:", err)
	}
}

func saveRelation(path string, r *relation.Relation) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := relation.WriteCSV(f, r); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func cmdEmbed(args []string) error {
	fs := flag.NewFlagSet("embed", flag.ExitOnError)
	in := fs.String("in", "", "input CSV")
	spec := fs.String("schema", "", "schema spec")
	attr := fs.String("attr", "", "categorical attribute to watermark")
	keyAttr := fs.String("key-attr", "", "key attribute (default: primary key)")
	wmStr := fs.String("wm", "", "watermark bits, e.g. 1011001110")
	k1 := fs.String("k1", "", "secret key 1 passphrase")
	k2 := fs.String("k2", "", "secret key 2 passphrase")
	e := fs.Uint64("e", 60, "fitness parameter e")
	codeName := fs.String("code", ecc.MajorityCode{}.Name(),
		fmt.Sprintf("error correcting code %v", ecc.Names()))
	domainPath := fs.String("domain", "", "value catalog file for -attr (one value per line); strongly recommended — see detect")
	out := fs.String("out", "", "output CSV")
	parallel := fs.Int("parallel", 1, "pipeline workers (1 = sequential, 0 = NumCPU)")
	fs.Parse(args)

	if *in == "" || *spec == "" || *attr == "" || *wmStr == "" || *k1 == "" || *k2 == "" || *out == "" {
		return fmt.Errorf("embed: -in, -schema, -attr, -wm, -k1, -k2, -out are required")
	}
	wm, err := ecc.ParseBits(*wmStr)
	if err != nil {
		return err
	}
	code, err := ecc.ByName(*codeName)
	if err != nil {
		return err
	}
	r, err := loadRelation(*in, *spec)
	if err != nil {
		return err
	}
	var dom *relation.Domain
	if *domainPath != "" {
		if dom, err = loadDomain(*domainPath); err != nil {
			return err
		}
	}
	opts := mark.Options{
		KeyAttr: *keyAttr,
		Attr:    *attr,
		K1:      keyhash.NewKey(*k1),
		K2:      keyhash.NewKey(*k2),
		E:       *e,
		Code:    code,
		Domain:  dom,
	}
	st, err := pipeline.Embed(context.Background(), r, wm, opts, pipeline.Config{Workers: localWorkers(*parallel)})
	if err != nil {
		return err
	}
	if err := saveRelation(*out, r); err != nil {
		return err
	}
	fmt.Printf("embedded %d-bit watermark into %s\n", len(wm), *out)
	fmt.Printf("  tuples:            %d\n", st.Tuples)
	fmt.Printf("  fit tuples:        %d\n", st.Fit)
	fmt.Printf("  altered:           %d (%.2f%% of data)\n", st.Altered, st.AlterationRate()*100)
	fmt.Printf("  bandwidth |wm_data|: %d  <- keep this for detection after data loss\n", st.Bandwidth)
	return nil
}

func cmdDetect(args []string) error {
	fs := flag.NewFlagSet("detect", flag.ExitOnError)
	in := fs.String("in", "", "input CSV")
	spec := fs.String("schema", "", "schema spec")
	attr := fs.String("attr", "", "watermarked attribute")
	keyAttr := fs.String("key-attr", "", "key attribute (default: primary key)")
	wmLen := fs.Int("wmlen", 0, "watermark bit length")
	k1 := fs.String("k1", "", "secret key 1 passphrase")
	k2 := fs.String("k2", "", "secret key 2 passphrase")
	e := fs.Uint64("e", 60, "fitness parameter e")
	bw := fs.Int("bandwidth", 0, "embedding-time |wm_data| (0 = derive from data)")
	codeName := fs.String("code", ecc.MajorityCode{}.Name(), "error correcting code")
	domainPath := fs.String("domain", "", "value catalog file for -attr; without it the domain is derived from the (possibly attacked) data and indices may shift")
	expect := fs.String("expect", "", "optional expected bits to score against")
	parallel := fs.Int("parallel", 1, "pipeline workers (1 = sequential, 0 = NumCPU)")
	fs.Parse(args)

	if *in == "" || *spec == "" || *attr == "" || *wmLen <= 0 || *k1 == "" || *k2 == "" {
		return fmt.Errorf("detect: -in, -schema, -attr, -wmlen, -k1, -k2 are required")
	}
	code, err := ecc.ByName(*codeName)
	if err != nil {
		return err
	}
	r, err := loadRelation(*in, *spec)
	if err != nil {
		return err
	}
	var dom *relation.Domain
	if *domainPath != "" {
		if dom, err = loadDomain(*domainPath); err != nil {
			return err
		}
	}
	opts := mark.Options{
		KeyAttr:           *keyAttr,
		Attr:              *attr,
		K1:                keyhash.NewKey(*k1),
		K2:                keyhash.NewKey(*k2),
		E:                 *e,
		Code:              code,
		Domain:            dom,
		BandwidthOverride: *bw,
	}
	rep, err := pipeline.Detect(context.Background(), r, *wmLen, opts, pipeline.Config{Workers: localWorkers(*parallel)})
	if err != nil {
		return err
	}
	fmt.Printf("detected watermark: %s\n", rep.WM)
	fmt.Printf("  tuples examined:   %d\n", rep.Tuples)
	fmt.Printf("  fit tuples:        %d\n", rep.Fit)
	fmt.Printf("  positions filled:  %d / %d\n", rep.PositionsFilled, rep.Bandwidth)
	fmt.Printf("  unknown values:    %d\n", rep.UnknownValues)
	fmt.Printf("  mean vote margin:  %.3f\n", rep.MeanMargin)
	fmt.Printf("  false-positive probability of a %d-bit match: %.3g\n",
		*wmLen, analysis.FalsePositiveProb(*wmLen))
	if *expect != "" {
		want, err := ecc.ParseBits(*expect)
		if err != nil {
			return err
		}
		if len(want) != *wmLen {
			return fmt.Errorf("expected bits length %d != wmlen %d", len(want), *wmLen)
		}
		fmt.Printf("  match vs expected: %.1f%%\n", rep.MatchFraction(want)*100)
	}
	return nil
}

func cmdWatermark(args []string) error {
	fs := flag.NewFlagSet("watermark", flag.ExitOnError)
	in := fs.String("in", "", "input CSV")
	spec := fs.String("schema", "", "schema spec")
	attr := fs.String("attr", "", "categorical attribute to watermark")
	secret := fs.String("secret", "", "master watermarking secret")
	wmStr := fs.String("wm", "", "watermark bits, e.g. 1011001110")
	e := fs.Uint64("e", 60, "fitness parameter e")
	domainPath := fs.String("domain", "", "value catalog file (one value per line); default: derived from data and stored in the record")
	withFreq := fs.Bool("frequency-channel", false, "additionally embed into the occurrence histogram (survives extreme vertical partitions)")
	maxAlter := fs.Float64("max-alteration", 0, "quality budget: maximum fraction of tuples altered (0 = unlimited)")
	out := fs.String("out", "", "output CSV")
	recordPath := fs.String("record", "", "output watermark certificate (JSON, secret!); local mode only")
	parallel := fs.Int("parallel", 1, "pipeline workers (1 = sequential, 0 = NumCPU)")
	serverURL := fs.String("server", "", "wmserver base URL: embed remotely, certificate stored server-side")
	fs.Parse(args)

	if *serverURL != "" {
		if *in == "" || *spec == "" || *attr == "" || *secret == "" || *wmStr == "" || *out == "" {
			return fmt.Errorf("watermark -server: -in, -schema, -attr, -secret, -wm, -out are required")
		}
		return remoteWatermark(*serverURL, *in, *spec, *attr, *secret, *wmStr, *domainPath, *out, *e, *withFreq, *maxAlter, *parallel)
	}
	if *in == "" || *spec == "" || *attr == "" || *secret == "" || *wmStr == "" || *out == "" || *recordPath == "" {
		return fmt.Errorf("watermark: -in, -schema, -attr, -secret, -wm, -out, -record are required")
	}
	r, err := loadRelation(*in, *spec)
	if err != nil {
		return err
	}
	var dom *relation.Domain
	if *domainPath != "" {
		if dom, err = loadDomain(*domainPath); err != nil {
			return err
		}
	}
	rec, st, err := core.Watermark(r, core.Spec{
		Secret:                *secret,
		Attribute:             *attr,
		WM:                    *wmStr,
		E:                     *e,
		Domain:                dom,
		WithFrequencyChannel:  *withFreq,
		MaxAlterationFraction: *maxAlter,
		Workers:               localWorkers(*parallel),
	})
	if err != nil {
		return err
	}
	if err := saveRelation(*out, r); err != nil {
		return err
	}
	data, err := rec.Save()
	if err != nil {
		return err
	}
	if err := os.WriteFile(*recordPath, data, 0o600); err != nil {
		return err
	}
	fmt.Printf("watermarked %s (%d tuples)\n", *out, r.Len())
	fmt.Printf("  key channel: %d fit, %d altered (%.2f%% of data)\n",
		st.Mark.Fit, st.Mark.Altered, st.Mark.AlterationRate()*100)
	if *withFreq {
		fmt.Printf("  frequency channel: %d tuples moved\n", st.FrequencyMoved)
	}
	fmt.Printf("  certificate written to %s — keep it secret, it proves ownership\n", *recordPath)
	return nil
}

// localWorkers maps the CLI -parallel convention (1 = sequential,
// 0 = NumCPU) onto the worker count of a local pass, which core.Spec
// and pipeline.Config read alike. A count above runtime.NumCPU() runs
// NumCPU workers, as 0 does: more workers than CPUs gain nothing, and
// the stream pass sizes its queues by the count.
func localWorkers(parallel int) int {
	if parallel == 0 || parallel > runtime.NumCPU() {
		return runtime.NumCPU()
	}
	return parallel
}

func cmdVerify(args []string) error {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	in := fs.String("in", "", "suspect CSV")
	spec := fs.String("schema", "", "schema spec")
	recordPath := fs.String("record", "", "watermark certificate (JSON file; a stored ID with -server)")
	recordPaths := fs.String("records", "", "comma-separated certificate files (stored IDs with -server): verify all against ONE streaming scan of -in")
	parallel := fs.Int("parallel", 1, "pipeline workers (1 = sequential, 0 = NumCPU)")
	serverURL := fs.String("server", "", "wmserver base URL: verify remotely against stored certificates, streaming the suspect from disk")
	kernelFlag := fs.String("kernel", "", "pin the batched keyed-hash backend for local scans (see 'wmtool kernels'; empty = auto-select)")
	prof := addProfileFlags(fs)
	fs.Parse(args)

	if *in == "" || *spec == "" || (*recordPath == "") == (*recordPaths == "") {
		return fmt.Errorf("verify: -in, -schema, and exactly one of -record / -records are required")
	}
	kernel, err := parseKernelFlag(*kernelFlag)
	if err != nil {
		return fmt.Errorf("verify: %w", err)
	}
	if err := prof.start(); err != nil {
		return err
	}
	defer prof.stop()
	if *serverURL != "" {
		if *kernelFlag != "" {
			return fmt.Errorf("verify: -kernel applies to local scans; pin the server's backend with wmserver -kernel")
		}
		return remoteVerify(*serverURL, *in, *spec, *recordPath, splitList(*recordPaths), *parallel)
	}
	if *recordPaths != "" {
		return verifyBatch(*in, *spec, splitList(*recordPaths), localWorkers(*parallel), kernel)
	}
	data, err := os.ReadFile(*recordPath)
	if err != nil {
		return err
	}
	rec, err := core.LoadRecord(data)
	if err != nil {
		return err
	}
	suspect, err := loadRelation(*in, *spec)
	if err != nil {
		return err
	}
	rep, err := rec.VerifyWith(suspect, core.VerifyOptions{
		Workers:    localWorkers(*parallel),
		HashKernel: kernel,
	})
	if err != nil {
		return err
	}
	wmLen := len(rec.WM)
	fmt.Printf("verification of %s against %s\n", *in, *recordPath)
	fmt.Printf("  claimed watermark:  %s\n", rec.WM)
	fmt.Printf("  detected watermark: %s\n", rep.Detected)
	fmt.Printf("  bit agreement:      %.1f%%\n", rep.Match*100)
	if rep.RemapRecovered {
		fmt.Println("  note: values were bijectively remapped; inverse mapping")
		fmt.Println("  recovered from the registered frequency profile (Section 4.5)")
	}
	if rep.FrequencyMatch >= 0 {
		fmt.Printf("  frequency channel:  %.1f%% agreement\n", rep.FrequencyMatch*100)
	}
	fmt.Printf("  chance of a full %d-bit match on unmarked data: %.3g\n",
		wmLen, analysis.FalsePositiveProb(wmLen))
	fmt.Printf("verdict: %s\n", verdictString(rep.Match))
	return nil
}

// verdictString renders a match fraction at the shared core thresholds.
func verdictString(match float64) string {
	switch {
	case match >= core.PresentThreshold:
		return "WATERMARK PRESENT"
	case match >= core.PartialThreshold:
		return "partial match — data heavily attacked or partly unrelated"
	default:
		return "no watermark evidence"
	}
}

// verifyBatch checks the suspect against every certificate in one
// streaming scan: the CSV is read straight off disk block by block and
// fanned across all prepared scanners (core.VerifyBatch), so auditing a
// dataset against a whole certificate catalog costs one pass.
func verifyBatch(in, spec string, recordPaths []string, workers int, kernel keyhash.KernelKind) error {
	records := make([]*core.Record, len(recordPaths))
	for i, path := range recordPaths {
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if records[i], err = core.LoadRecord(data); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	schema, err := relation.ParseSchemaSpec(spec)
	if err != nil {
		return err
	}
	f, err := os.Open(in)
	if err != nil {
		return err
	}
	defer f.Close()
	// The zero-copy block reader: core.VerifyBatch's pipeline recognizes
	// its BlockReader side and scans columnar blocks, 0 allocs/row.
	src, err := relation.NewCSVBlockReader(f, schema)
	if err != nil {
		return err
	}
	outs, err := core.VerifyBatch(context.Background(), records, src, core.BatchOptions{Workers: workers, HashKernel: kernel})
	if err != nil {
		return err
	}
	fmt.Printf("batch verification of %s against %d certificates (one scan)\n", in, len(records))
	for i, out := range outs {
		if out.Err != nil {
			fmt.Printf("  %-30s error: %v\n", recordPaths[i], out.Err)
			continue
		}
		rep := out.Report
		fmt.Printf("  %-30s match %5.1f%%  %s\n", recordPaths[i], rep.Match*100, verdictString(rep.Match))
	}
	for _, out := range outs {
		if out.Err == nil {
			fmt.Printf("  (%d tuples scanned once; remap recovery and frequency channel\n"+
				"   are skipped on the streaming path — rerun with -record for those)\n",
				out.Report.Primary.Tuples)
			break
		}
	}
	return nil
}

// cmdKernels reports the batched keyed-hash backends compiled into this
// binary, which of them this machine can run, a micro-benchmark's
// measured rate for each, and the backend the KernelAuto rule picks
// from this CPU's features — the data behind every -kernel flag.
func cmdKernels(args []string) error {
	fs := flag.NewFlagSet("kernels", flag.ExitOnError)
	fs.Parse(args)
	cal := keyhash.Calibrate()
	auto := keyhash.AutoKind()
	fmt.Println("batched keyed-hash backends, H(V;k) = SHA-256(len(k) || k || V || k):")
	for _, bk := range keyhash.Backends() {
		line := fmt.Sprintf("  %-13s %d lane", bk.Kind, bk.Lanes)
		if bk.Lanes != 1 {
			line += "s"
		}
		if rate, ok := cal.HashesPerSec[bk.Kind]; ok {
			line += fmt.Sprintf("  %8.2f Mhash/s", rate/1e6)
		}
		if !bk.Available {
			line += "  unavailable (needs " + bk.Requires + ")"
		}
		if bk.Kind == auto {
			line += "  <- auto selection"
		}
		fmt.Println(line)
	}
	fmt.Printf("\nauto (the default for every scan) picks %q from this CPU's features;\n", auto)
	fmt.Printf("the fastest measured here was %q.\n", cal.Kind)
	fmt.Println("pin a backend with 'wmtool verify -kernel <kind>' or 'wmserver -kernel <kind>'.")
	return nil
}

// parseKernelFlag validates a -kernel value against the registered
// backends, listing them on a miss.
func parseKernelFlag(v string) (keyhash.KernelKind, error) {
	if v == "" || v == "auto" {
		return keyhash.KernelAuto, nil
	}
	for _, bk := range keyhash.Backends() {
		if string(bk.Kind) == v {
			if !bk.Available {
				return "", fmt.Errorf("kernel %s not available on this machine (needs %s)", v, bk.Requires)
			}
			return bk.Kind, nil
		}
	}
	names := "auto"
	for _, bk := range keyhash.Backends() {
		names += ", " + string(bk.Kind)
	}
	return "", fmt.Errorf("unknown kernel %q (have %s)", v, names)
}

func cmdAttack(args []string) error {
	fs := flag.NewFlagSet("attack", flag.ExitOnError)
	in := fs.String("in", "", "input CSV")
	spec := fs.String("schema", "", "schema spec")
	typ := fs.String("type", "", "attack: subset | addition | alteration | shuffle | sort | remap")
	frac := fs.Float64("frac", 0.5, "attack fraction (meaning depends on type)")
	attr := fs.String("attr", "", "target attribute (alteration/sort/remap)")
	seed := fs.String("seed", "wmtool-attack", "attack randomness seed")
	out := fs.String("out", "", "output CSV")
	fs.Parse(args)

	if *in == "" || *spec == "" || *typ == "" || *out == "" {
		return fmt.Errorf("attack: -in, -schema, -type, -out are required")
	}
	r, err := loadRelation(*in, *spec)
	if err != nil {
		return err
	}
	src := stats.NewSource(*seed)
	var attacked *relation.Relation
	switch *typ {
	case "subset":
		attacked, err = attacks.HorizontalSubset(r, 1-*frac, src)
		if err == nil {
			fmt.Printf("A1: dropped %.0f%% of tuples (%d -> %d)\n", *frac*100, r.Len(), attacked.Len())
		}
	case "addition":
		attacked, err = attacks.SubsetAddition(r, *frac, src)
		if err == nil {
			fmt.Printf("A2: added %d tuples\n", attacked.Len()-r.Len())
		}
	case "alteration":
		if *attr == "" {
			return fmt.Errorf("attack alteration: -attr required")
		}
		attacked, err = attacks.SubsetAlteration(r, *attr, *frac, nil, src)
		if err == nil {
			fmt.Printf("A3: randomly altered %.0f%% of %s values\n", *frac*100, *attr)
		}
	case "shuffle":
		attacked = attacks.Resort(r, src)
		fmt.Println("A4: tuples shuffled")
	case "sort":
		if *attr == "" {
			return fmt.Errorf("attack sort: -attr required")
		}
		attacked, err = attacks.SortByAttr(r, *attr)
		if err == nil {
			fmt.Printf("A4: sorted by %s\n", *attr)
		}
	case "remap":
		if *attr == "" {
			return fmt.Errorf("attack remap: -attr required")
		}
		var forward map[string]string
		attacked, forward, err = attacks.BijectiveRemap(r, *attr, src)
		if err == nil {
			fmt.Printf("A6: remapped %d distinct %s values bijectively\n", len(forward), *attr)
		}
	default:
		return fmt.Errorf("attack: unknown type %q", *typ)
	}
	if err != nil {
		return err
	}
	return saveRelation(*out, attacked)
}

func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", ":8080", "listen address")
	storeDir := fs.String("store", "./wmstore", "certificate store directory")
	workers := fs.Int("workers", 0, "default pipeline workers per job (0 = NumCPU)")
	maxBody := fs.Int64("max-body", server.DefaultMaxBodyBytes, "maximum request body bytes")
	scannerCache := fs.Int("scanner-cache", 0, "prepared-certificate cache entries (0 = default, negative = disable)")
	jobWorkers := fs.Int("job-workers", 0, "concurrent async jobs (0 = default)")
	jobQueue := fs.Int("job-queue", 0, "async job queue depth; beyond it POST /v2/jobs replies 429 (0 = default)")
	logLevel := fs.String("log-level", "info", "initial log level: debug, info, warn or error (changeable at runtime via PUT /debug/loglevel)")
	enablePprof := fs.Bool("pprof", false, "mount /debug/pprof/ profiling endpoints")
	traceSample := fs.Float64("trace-sample", 1, "trace head-sampling ratio in [0,1]; errored requests are recorded regardless")
	traceRing := fs.Int("trace-ring", 0, "finished spans retained in the trace ring (0 = default)")
	traceOff := fs.Bool("trace-off", false, "disable tracing and the trace routes entirely")
	fs.Parse(args)

	level := new(slog.LevelVar)
	level.Set(obs.ParseLevel(*logLevel))
	return server.Run(*addr, *storeDir, server.Config{
		Workers:             *workers,
		MaxBodyBytes:        *maxBody,
		ScannerCacheEntries: *scannerCache,
		JobWorkers:          *jobWorkers,
		JobQueueDepth:       *jobQueue,
		Log:                 obs.NewLogger(os.Stderr, level),
		LogLevel:            level,
		EnablePprof:         *enablePprof,
		Trace:               trace.Options{SampleRatio: *traceSample, Capacity: *traceRing},
		TraceOff:            *traceOff,
	})
}

func cmdAnalyze(args []string) error {
	fs := flag.NewFlagSet("analyze", flag.ExitOnError)
	n := fs.Int("n", 6000, "relation size N")
	e := fs.Uint64("e", 60, "fitness parameter e")
	a := fs.Int("a", 1200, "attack size (tuples altered)")
	p := fs.Float64("p", 0.7, "per-marked-tuple flip success rate")
	r := fs.Int("r", 15, "wm_data flips counted as attacker success")
	theta := fs.Float64("theta", 0.10, "tolerable attack success probability")
	wmLen := fs.Int("wmlen", 10, "watermark bits")
	nA := fs.Int("na", 1000, "categorical domain size n_A for capacity analysis")
	fs.Parse(args)

	fmt.Printf("Section 4.4 vulnerability analysis (N=%d, e=%d, a=%d, p=%.2f, r=%d)\n",
		*n, *e, *a, *p, *r)
	fmt.Printf("  false positive, |wm| bits:        %.3g\n", analysis.FalsePositiveProb(*wmLen))
	fmt.Printf("  false positive, full bandwidth:   %.3g\n", analysis.FalsePositiveProbFullBandwidth(*n, *e))

	m := analysis.AttackModel{N: *n, E: *e, A: *a, P: *p, R: *r}
	exact, err := analysis.AttackSuccessExact(m)
	if err != nil {
		return err
	}
	normal, cltOK, err := analysis.AttackSuccessNormal(m)
	if err != nil {
		return err
	}
	fmt.Printf("  marked tuples attacked (a/e):     %d\n", m.MarkedAttacked())
	fmt.Printf("  P(r,a) exact binomial:            %.4f\n", exact)
	fmt.Printf("  P(r,a) normal approx (eq. 2):     %.4f  (CLT applies: %v)\n", normal, cltOK)
	fmt.Printf("  expected final mark damage:       %.2f%%\n",
		analysis.ExpectedMarkAlteration(*r, *n, *e, 0.05, *wmLen, int(uint64(*n) / *e))*100)

	eStar, err := analysis.MinimumE(*a, *p, *theta, *r)
	if err != nil {
		return err
	}
	fmt.Printf("  minimum e for P <= %.0f%%:           %d\n", *theta*100, eStar)
	fmt.Printf("  implied alteration budget (N/e*): %.2f%% of data\n",
		analysis.AlterationBudget(*n, eStar)*100)

	// Section 2.4 / 3.1 channel capacities at this configuration.
	cap, err := analysis.Capacity(*n, *e, *nA, float64(*a)/float64(*n), *theta)
	if err != nil {
		return err
	}
	fmt.Printf("channel capacities (n_A=%d):\n", *nA)
	fmt.Printf("  direct-domain entropy:            %.1f bits (rejected by the paper)\n", cap.DirectDomainBits)
	fmt.Printf("  key-association bandwidth (N/e):  %d bits\n", cap.AssociationBits)
	fmt.Printf("  robust watermark capacity:        %d bits (per-bit error <= %.0f%% under this attack)\n",
		cap.RobustBits, *theta*100)
	fmt.Printf("  frequency-histogram channel:      %d bits\n", cap.FrequencyBits)
	return nil
}

// ---- remote mode: the CLI as the SDK's first consumer ----

// splitList parses a comma-separated flag value, tolerating blanks.
func splitList(raw string) []string {
	var out []string
	for _, v := range strings.Split(raw, ",") {
		if v = strings.TrimSpace(v); v != "" {
			out = append(out, v)
		}
	}
	return out
}

// sdkWorkers maps the CLI -parallel convention onto the wire workers
// field, where 0 means "server default".
func sdkWorkers(parallel int) int {
	if parallel <= 1 {
		return 0
	}
	return parallel
}

// remoteWatermark embeds over a running wmserver: the relation travels
// inline, the certificate stays in the server's store, and the marked
// copy lands in outPath.
func remoteWatermark(serverURL, in, spec, attr, secret, wmStr, domainPath, outPath string, e uint64, withFreq bool, maxAlter float64, parallel int) error {
	data, err := os.ReadFile(in)
	if err != nil {
		return err
	}
	var domain []string
	if domainPath != "" {
		dom, err := loadDomain(domainPath)
		if err != nil {
			return err
		}
		domain = dom.Values()
	}
	c := client.New(serverURL)
	resp, err := c.Watermark(context.Background(), api.WatermarkRequest{
		Schema:                spec,
		Data:                  string(data),
		Secret:                secret,
		Attribute:             attr,
		WM:                    wmStr,
		E:                     e,
		Domain:                domain,
		FrequencyChannel:      withFreq,
		MaxAlterationFraction: maxAlter,
		Workers:               sdkWorkers(parallel),
	})
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, []byte(resp.Data), 0o644); err != nil {
		return err
	}
	fmt.Printf("watermarked %s via %s (%d tuples)\n", outPath, serverURL, resp.Tuples)
	fmt.Printf("  key channel: %d fit, %d altered (%.2f%% of data)\n",
		resp.Fit, resp.Altered, resp.AlterationRate*100)
	fmt.Printf("  certificate stored server-side: id %s\n", resp.ID)
	fmt.Printf("  verify later with: wmtool verify -server %s -record %s -in SUSPECT.csv -schema '%s'\n",
		serverURL, resp.ID, spec)
	return nil
}

// remoteVerify checks a suspect file against stored certificates on a
// running wmserver. The suspect streams from disk straight into the
// server's detection pipeline (text/csv body) — it is never held in
// memory on either side.
func remoteVerify(serverURL, in, spec, recordID string, recordIDs []string, parallel int) error {
	f, err := os.Open(in)
	if err != nil {
		return err
	}
	defer f.Close()
	c := client.New(serverURL)
	opts := client.StreamOptions{Schema: spec, Workers: sdkWorkers(parallel)}

	if recordID != "" {
		rep, err := c.VerifyStream(context.Background(), recordID, f, opts)
		if err != nil {
			return err
		}
		fmt.Printf("verification of %s against %s (server %s)\n", in, recordID, serverURL)
		fmt.Printf("  detected watermark: %s\n", rep.Detected)
		fmt.Printf("  bit agreement:      %.1f%%\n", rep.Match*100)
		fmt.Printf("  chance of a full %d-bit match on unmarked data: %.3g\n",
			len(rep.Detected), rep.FalsePositiveProb)
		fmt.Printf("verdict: %s\n", verdictString(rep.Match))
		return nil
	}

	resp, err := c.VerifyBatchStream(context.Background(), recordIDs, f, opts)
	if err != nil {
		return err
	}
	printBatchResults(in, serverURL, resp)
	return nil
}

// printBatchResults renders per-certificate audit verdicts.
func printBatchResults(in, serverURL string, resp *api.BatchVerifyResponse) {
	fmt.Printf("batch verification of %s against %d certificates (server %s, one scan, %d tuples)\n",
		in, len(resp.Results), serverURL, resp.Tuples)
	for _, res := range resp.Results {
		if res.Error != "" {
			fmt.Printf("  %-34s error: %s\n", res.ID, res.Error)
			continue
		}
		fmt.Printf("  %-34s match %5.1f%%  %s\n", res.ID, res.Match*100, verdictString(res.Match))
	}
}

// cmdAudit submits an async batch-verification job to a wmserver and —
// unless -nowait — polls it to completion and prints the per-certificate
// reports. This is the court-grade corpus audit as a job resource: the
// upload returns immediately, the scan runs on the server's job pool,
// and Ctrl-C'ing the wait leaves the job running server-side (cancel it
// with DELETE /v2/jobs/{id} if that is not wanted).
//
// The wait polls under capped exponential backoff with jitter (fast
// first polls so short audits return promptly, a few requests a minute
// once the job is clearly long) and prints the server's tuples-scanned
// progress as it advances; -poll pins a fixed interval instead.
func cmdAudit(args []string) error {
	fs := flag.NewFlagSet("audit", flag.ExitOnError)
	serverURL := fs.String("server", "", "wmserver base URL (required)")
	in := fs.String("in", "", "suspect CSV")
	spec := fs.String("schema", "", "schema spec")
	records := fs.String("records", "", "comma-separated stored certificate IDs (empty = whole catalog)")
	workers := fs.Int("parallel", 0, "server-side scan workers (0 = server default)")
	nowait := fs.Bool("nowait", false, "submit and print the job ID without waiting")
	poll := fs.Duration("poll", 0, "fixed poll interval while waiting (0 = capped exponential backoff with jitter)")
	quiet := fs.Bool("quiet", false, "suppress progress lines while waiting")
	jsonOut := fs.Bool("json", false, "emit the final batch report (or, with -nowait, the job resource) as JSON on stdout; human chatter goes to stderr")
	showTrace := fs.Bool("trace", false, "after the summary, fetch GET /v2/jobs/{id}/trace and render the distributed span tree with a per-phase latency table")
	prof := addProfileFlags(fs)
	fs.Parse(args)

	if *serverURL == "" || *in == "" || *spec == "" {
		return fmt.Errorf("audit: -server, -in, -schema are required")
	}
	if err := prof.start(); err != nil {
		return err
	}
	defer prof.stop()
	data, err := os.ReadFile(*in)
	if err != nil {
		return err
	}
	c := client.New(*serverURL)
	ctx := context.Background()
	job, err := c.SubmitJob(ctx, api.JobRequest{
		Kind: api.JobKindVerifyBatch,
		VerifyBatch: &api.BatchVerifyRequest{
			Records: splitList(*records),
			Schema:  *spec,
			Data:    string(data),
			Workers: *workers,
		},
	})
	if err != nil {
		return err
	}
	// With -json, stdout carries machine-readable output ONLY; everything
	// a human reads moves to stderr so `wmtool audit -json | jq` works.
	human := os.Stdout
	if *jsonOut {
		human = os.Stderr
	}
	fmt.Fprintf(human, "audit job %s submitted (%s)\n", job.ID, job.State)
	if *nowait {
		fmt.Fprintf(human, "poll with: curl %s/v2/jobs/%s\n", *serverURL, job.ID)
		if *jsonOut {
			return writeJSONOut(job)
		}
		return nil
	}

	start := time.Now()
	waitOpts := client.WaitOptions{}
	if *poll > 0 {
		waitOpts.Initial, waitOpts.Max, waitOpts.Jitter = *poll, *poll, -1
	}
	if !*quiet {
		var lastProgress int64 = -1
		waitOpts.Notify = func(j *api.Job) {
			if j.State == api.JobRunning && j.Progress > lastProgress {
				fmt.Fprintf(human, "  ... %d tuples scanned (%s)\n", j.Progress, time.Since(start).Round(time.Second))
				lastProgress = j.Progress
			}
		}
	}
	final, err := c.WaitJobWith(ctx, job.ID, waitOpts)
	if err != nil {
		return err
	}
	switch final.State {
	case api.JobDone:
		fmt.Fprintf(human, "job %s done in %s\n", final.ID, time.Since(start).Round(time.Millisecond))
		printAuditSummary(human, final, time.Since(start))
		if !*jsonOut {
			printBatchResults(*in, *serverURL, final.VerifyBatch)
		}
		// The trace always renders on the human stream — with -json it
		// lands on stderr and stdout stays the machine-pure report.
		if *showTrace {
			showJobTrace(ctx, c, human, final.ID)
		}
		if *jsonOut {
			return writeJSONOut(final.VerifyBatch)
		}
		return nil
	case api.JobCancelled:
		return fmt.Errorf("audit: job %s was cancelled", final.ID)
	default:
		return fmt.Errorf("audit: job %s failed: %v", final.ID, final.Error)
	}
}

// printAuditSummary renders the one-line audit roll-up: tuples scanned
// (the job's progress counter), server-side wall time (StartedAt to
// FinishedAt, falling back to the locally measured wait), and the
// aggregate certificate-tuple throughput — each scanned tuple is checked
// against every certificate in one pass, so cert·tuples/s is the figure
// that stays comparable as the catalog grows. Written to the human
// stream, so with -json it lands on stderr and stdout stays machine-pure.
func printAuditSummary(human *os.File, final *api.Job, localElapsed time.Duration) {
	wall := localElapsed
	if final.StartedAt != nil && final.FinishedAt != nil {
		if d := final.FinishedAt.Sub(*final.StartedAt); d > 0 {
			wall = d
		}
	}
	certs := 0
	if final.VerifyBatch != nil {
		certs = len(final.VerifyBatch.Results)
	}
	rate := 0.0
	if secs := wall.Seconds(); secs > 0 {
		rate = float64(final.Progress) * float64(certs) / secs
	}
	fmt.Fprintf(human, "audit summary: %d tuples x %d certificates in %s (%.0f cert·tuples/s)\n",
		final.Progress, certs, wall.Round(time.Millisecond), rate)
}

// writeJSONOut renders v as indented JSON on stdout — the -json contract.
func writeJSONOut(v any) error {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
