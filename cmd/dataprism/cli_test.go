package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"testing"
	"time"

	dataprism "repro"
)

// statusScorer is a one-line external system: the malfunction is the
// fraction of rows whose status (the first CSV field) is neither "ok" nor
// "error".
const statusScorer = `awk -F, 'NR>1 { n++; if ($1 != "ok" && $1 != "error") bad++ } END { if (n == 0) print 1; else printf "%.4f\n", bad/n }'`

// wantStatusExplanation is the root cause the status pair exposes.
const wantStatusExplanation = "⟨Domain, status, {error,ok}⟩"

// statusFixture writes a passing and a failing CSV with status, latency and
// zone columns, where the failing side spells the statuses okay/err, plus
// the scorer script. It returns the directory and the flags that explain
// the pair.
func statusFixture(t *testing.T) (dir string, explainArgs []string) {
	t.Helper()
	dir = t.TempDir()
	var pass, fail strings.Builder
	pass.WriteString("status,latency,zone\n")
	fail.WriteString("status,latency,zone\n")
	zones := []string{"eu", "us", "ap"}
	for i := 0; i < 60; i++ {
		status, spelled := "ok", "okay"
		if i%4 == 0 {
			status, spelled = "error", "err"
		}
		latency := 10 + (i*7)%40
		fmt.Fprintf(&pass, "%s,%d,%s\n", status, latency, zones[i%3])
		fmt.Fprintf(&fail, "%s,%d,%s\n", spelled, latency, zones[i%3])
	}
	writeFile(t, dir, "pass.csv", pass.String())
	writeFile(t, dir, "fail.csv", fail.String())
	writeFile(t, dir, "score.sh", statusScorer+"\n")
	return dir, []string{
		"-pass", filepath.Join(dir, "pass.csv"),
		"-fail", filepath.Join(dir, "fail.csv"),
		"-system-cmd", "sh " + filepath.Join(dir, "score.sh"),
		"-tau", "0.1", "-json",
	}
}

func writeFile(t *testing.T, dir, name, content string) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

// cliReport is the part of the -json report the black-box tests compare.
type cliReport struct {
	Found         bool            `json:"found"`
	Explanation   []string        `json:"explanation"`
	Interventions int             `json:"interventions"`
	StoreHits     int             `json:"store_hits"`
	Trace         json.RawMessage `json:"trace"`
	Fleet         *struct {
		Dispatched    int `json:"dispatched"`
		FallbackEvals int `json:"fallback_evals"`
		Workers       []struct {
			Addr         string `json:"addr"`
			BreakerTrips int    `json:"breaker_trips"`
		} `json:"worker_diagnostics"`
	} `json:"fleet"`
}

// explain runs the CLI and decodes its -json report; it requires exit 0.
func explain(t *testing.T, args ...string) cliReport {
	t.Helper()
	out, code := run(t, args...)
	if code != 0 {
		t.Fatalf("dataprism %v: exit code %d\n%s", args, code, out)
	}
	var rep cliReport
	if err := json.Unmarshal(out, &rep); err != nil {
		t.Fatalf("dataprism %v: %v\n%s", args, err, out)
	}
	return rep
}

// requireStatusExplanation checks a report explains the status pair.
func requireStatusExplanation(t *testing.T, name string, rep cliReport) {
	t.Helper()
	if !rep.Found || !slices.Equal(rep.Explanation, []string{wantStatusExplanation}) {
		t.Fatalf("%s: found=%v explanation %q, want [%s]", name, rep.Found, rep.Explanation, wantStatusExplanation)
	}
}

// startWorker launches `serve-oracle` on a random loopback port and returns
// its address, read from the worker's stderr. The worker is terminated
// when the test ends.
func startWorker(t *testing.T, args ...string) string {
	t.Helper()
	cmd := exec.Command(binary, append([]string{"serve-oracle", "-listen", "127.0.0.1:0"}, args...)...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	addr := make(chan string, 1)
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			if _, a, ok := strings.Cut(sc.Text(), " on "); ok && strings.Contains(sc.Text(), "serving oracle") {
				addr <- a
			}
		}
	}()
	t.Cleanup(func() {
		cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-drained: // stderr reached EOF: the worker exited
		case <-time.After(10 * time.Second):
			cmd.Process.Kill()
			<-drained
		}
		cmd.Wait()
	})
	select {
	case a := <-addr:
		return a
	case <-time.After(30 * time.Second):
		t.Fatal("serve-oracle did not report its address")
		return ""
	}
}

// TestSystemCmdExplains runs the external-system path end to end.
func TestSystemCmdExplains(t *testing.T) {
	_, args := statusFixture(t)
	requireStatusExplanation(t, "local", explain(t, args...))
}

// TestRemoteWorkersMatchLocal checks that a loopback serve-oracle fleet
// gives the local run's explanation, intervention count and trace, for
// both search algorithms.
func TestRemoteWorkersMatchLocal(t *testing.T) {
	dir, args := statusFixture(t)
	scorer := "sh " + filepath.Join(dir, "score.sh")
	fleet := startWorker(t, "-system-cmd", scorer) + "," + startWorker(t, "-system-cmd", scorer)
	for _, algo := range []string{"grd", "gt"} {
		local := explain(t, append(args, "-algo", algo)...)
		requireStatusExplanation(t, algo+" local", local)
		remote := explain(t, append(args, "-algo", algo, "-remote-workers", fleet)...)
		requireStatusExplanation(t, algo+" fleet", remote)
		if remote.Interventions != local.Interventions {
			t.Errorf("%s: fleet interventions %d, local %d", algo, remote.Interventions, local.Interventions)
		}
		if string(remote.Trace) != string(local.Trace) {
			t.Errorf("%s: fleet trace differs from the local one\nfleet %s\nlocal %s", algo, remote.Trace, local.Trace)
		}
	}
}

// TestRemoteFallbackOnDeadFleet checks that a fleet whose only worker is
// unreachable degrades to the local -system-cmd when -remote-fallback is
// set: with the default breaker settings, where every evaluation fails on
// the worker first, and with a breaker that opens on the first failure.
func TestRemoteFallbackOnDeadFleet(t *testing.T) {
	_, args := statusFixture(t)
	for name, flags := range map[string][]string{
		"default":         nil,
		"breaker-opens-1": {"-breaker-threshold", "1", "-retries", "0"},
	} {
		rep := explain(t, append(append(args, "-remote-workers", "127.0.0.1:1", "-remote-fallback"), flags...)...)
		requireStatusExplanation(t, name, rep)
		if rep.Fleet == nil || rep.Fleet.FallbackEvals == 0 {
			t.Errorf("%s: fleet report %+v, want fallback evaluations", name, rep.Fleet)
		}
	}
}

// TestBreakerThresholdZeroInFleet checks that -breaker-threshold 0 means no
// breaker with -remote-workers too: a dead worker's breaker never opens, so
// it is tried on every evaluation and the fallback serves each one.
func TestBreakerThresholdZeroInFleet(t *testing.T) {
	rep := explain(t, "-scenario", "income", "-rows", "300", "-remote-workers", "127.0.0.1:1",
		"-remote-fallback", "-breaker-threshold", "0", "-retries", "0", "-json")
	if rep.Fleet == nil || len(rep.Fleet.Workers) == 0 {
		t.Fatalf("no fleet diagnostics in the report: %+v", rep.Fleet)
	}
	for _, w := range rep.Fleet.Workers {
		if w.BreakerTrips != 0 {
			t.Errorf("worker %s: %d breaker trips, want 0", w.Addr, w.BreakerTrips)
		}
	}
	if rep.Fleet.Dispatched == 0 || rep.Fleet.Dispatched != rep.Fleet.FallbackEvals {
		t.Errorf("dispatched %d, fallback evaluations %d; want equal and > 0", rep.Fleet.Dispatched, rep.Fleet.FallbackEvals)
	}
}

// TestScoreCacheServesSecondProcess checks that a second process on the
// same -score-cache repeats no evaluation: every score comes from the store.
func TestScoreCacheServesSecondProcess(t *testing.T) {
	dir, args := statusFixture(t)
	args = append(args, "-score-cache", filepath.Join(dir, "scores"))
	cold := explain(t, args...)
	requireStatusExplanation(t, "cold", cold)
	warm := explain(t, args...)
	requireStatusExplanation(t, "warm", warm)
	if warm.Interventions != 0 || warm.StoreHits == 0 {
		t.Errorf("warm run: %d interventions, %d store hits; want 0 and > 0", warm.Interventions, warm.StoreHits)
	}
}

// TestScoreCacheResumesAfterKill checks that a search killed mid-run
// resumes from what its -score-cache holds. The failing side of the
// fixture also spells its zones in capitals, and the scorer charges both
// faults, so the cold run needs three interventions. A gate file makes the
// scorer's fifth call (after the passing score, the failing baseline and
// two interventions) block; the first process is then SIGKILLed. The
// command string, and with it the store key, is the same for both
// processes.
func TestScoreCacheResumesAfterKill(t *testing.T) {
	dir, _ := statusFixture(t)
	var fail strings.Builder
	fail.WriteString("status,latency,zone\n")
	zones := []string{"EU", "US", "AP"}
	for i := 0; i < 60; i++ {
		status := "okay"
		if i%4 == 0 {
			status = "err"
		}
		fmt.Fprintf(&fail, "%s,%d,%s\n", status, 10+(i*7)%40, zones[i%3])
	}
	writeFile(t, dir, "fail-zones.csv", fail.String())
	calls, gate, blocked := filepath.Join(dir, "calls.log"), filepath.Join(dir, "gate"), filepath.Join(dir, "blocked")
	writeFile(t, dir, "gated.sh", "echo call >> "+calls+"\n"+
		"if [ -e "+gate+" ] && [ \"$(wc -l < "+calls+")\" -gt 4 ]; then\n"+
		"  echo $$ > "+blocked+"\n"+
		"  exec sleep 60\n"+
		"fi\n"+
		`awk -F, 'NR>1 { n++; if ($1 != "ok" && $1 != "error") bad++; if ($3 != "eu" && $3 != "us" && $3 != "ap") bad++ } END { if (n == 0) print 1; else printf "%.4f\n", bad/(2*n) }'`+"\n")
	want := []string{wantStatusExplanation, "⟨Domain, zone, {ap,eu,us}⟩"}
	for _, algo := range []string{"grd", "gt"} {
		args := []string{
			"-pass", filepath.Join(dir, "pass.csv"),
			"-fail", filepath.Join(dir, "fail-zones.csv"),
			"-system-cmd", "sh " + filepath.Join(dir, "gated.sh"),
			"-tau", "0.1", "-json", "-algo", algo, "-workers", "1",
		}
		os.Remove(calls)
		cold := explain(t, append(args, "-score-cache", filepath.Join(dir, algo+"-clean"))...)
		got := slices.Clone(cold.Explanation)
		slices.Sort(got)
		if !slices.Equal(got, want) || cold.Interventions < 3 {
			t.Fatalf("%s: clean cold run explains %q with %d interventions, want %q with at least 3", algo, cold.Explanation, cold.Interventions, want)
		}

		args = append(args, "-score-cache", filepath.Join(dir, algo+"-scores"))
		os.Remove(calls)
		writeFile(t, dir, "gate", "")
		cmd := exec.Command(binary, args...)
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() { done <- cmd.Wait() }()
		var sleeper int
		for deadline := time.Now().Add(30 * time.Second); sleeper == 0; time.Sleep(20 * time.Millisecond) {
			if b, err := os.ReadFile(blocked); err == nil {
				fmt.Sscan(string(b), &sleeper)
			}
			select {
			case err := <-done:
				t.Fatalf("%s: the first process exited (%v) before its scorer blocked", algo, err)
			default:
			}
			if time.Now().After(deadline) {
				cmd.Process.Kill()
				<-done
				t.Fatalf("%s: the scorer never blocked", algo)
			}
		}
		cmd.Process.Kill()
		<-done
		syscall.Kill(sleeper, syscall.SIGKILL)
		os.Remove(gate)
		os.Remove(blocked)

		resumed := explain(t, args...)
		if !resumed.Found || !slices.Equal(resumed.Explanation, cold.Explanation) {
			t.Errorf("%s: resumed explanation %q, clean cold run %q", algo, resumed.Explanation, cold.Explanation)
		}
		if resumed.StoreHits < 2 || resumed.Interventions >= cold.Interventions {
			t.Errorf("%s: resumed run: %d store hits, %d interventions; want at least 2 hits and fewer than the clean run's %d interventions",
				algo, resumed.StoreHits, resumed.Interventions, cold.Interventions)
		}
	}
}

// TestWatchTicksExitCodes pins `watch -ticks 1` as a CI gate: exit 0 on
// the baseline's own feed, 3 on a drifted feed, 2 without -data.
func TestWatchTicksExitCodes(t *testing.T) {
	dir, _ := statusFixture(t)
	base := filepath.Join(dir, "base.json")
	if out, code := run(t, "profile", "-data", filepath.Join(dir, "pass.csv"), "-o", base); code != 0 {
		t.Fatalf("profile: exit code %d\n%s", code, out)
	}
	for _, c := range []struct {
		name string
		args []string
		want int
	}{
		{"own feed", []string{"-data", filepath.Join(dir, "pass.csv")}, 0},
		{"drifted feed", []string{"-data", filepath.Join(dir, "fail.csv")}, 3},
		{"no -data", nil, 2},
	} {
		out, code := run(t, append([]string{"watch", "-baseline", base, "-ticks", "1", "-interval", "10ms"}, c.args...)...)
		if code != c.want {
			t.Errorf("%s: exit code %d, want %d\n%s", c.name, code, c.want, out)
		}
	}
}

// TestWatchJSONKeys pins the top-level keys of a `watch -json` event on a
// drifted feed without an oracle.
func TestWatchJSONKeys(t *testing.T) {
	dir, _ := statusFixture(t)
	base := filepath.Join(dir, "base.json")
	if out, code := run(t, "profile", "-data", filepath.Join(dir, "pass.csv"), "-o", base); code != 0 {
		t.Fatalf("profile: exit code %d\n%s", code, out)
	}
	out, code := run(t, "watch", "-baseline", base, "-data", filepath.Join(dir, "fail.csv"), "-ticks", "1", "-json")
	if code != 3 {
		t.Fatalf("exit code %d, want 3\n%s", code, out)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if len(lines) != 1 {
		t.Fatalf("%d output lines, want one event\n%s", len(lines), out)
	}
	var ev map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[0]), &ev); err != nil {
		t.Fatalf("event is not one JSON object: %v\n%s", err, out)
	}
	var keys []string
	for k := range ev {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	if want := []string{"alerts", "diff", "escalated", "seq"}; !slices.Equal(keys, want) {
		t.Errorf("event keys %v, want %v", keys, want)
	}
}

// TestFailingDatasetScoredOnce checks that a run scores the failing
// dataset exactly once, for both search algorithms: the report's fail
// score is the search's own baseline measurement. The scorer appends the
// cksum of every CSV it receives to a log.
func TestFailingDatasetScoredOnce(t *testing.T) {
	dir, args := statusFixture(t)
	log := filepath.Join(dir, "scored.log")
	writeFile(t, dir, "logging.sh", "in=$(cat)\n"+
		"printf '%s\\n' \"$in\" | cksum >> "+log+"\n"+
		"printf '%s\\n' \"$in\" | "+statusScorer+"\n")
	fail, err := dataprism.ReadCSVFile(filepath.Join(dir, "fail.csv"), dataprism.CSVInferOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var sent bytes.Buffer
	if err := fail.WriteCSV(&sent); err != nil {
		t.Fatal(err)
	}
	sum := exec.Command("cksum")
	sum.Stdin = &sent
	want, err := sum.Output()
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range []string{"grd", "gt"} {
		os.Remove(log)
		rep := explain(t, append(args, "-algo", algo, "-system-cmd", "sh "+filepath.Join(dir, "logging.sh"))...)
		requireStatusExplanation(t, algo, rep)
		scored, err := os.ReadFile(log)
		if err != nil {
			t.Fatal(err)
		}
		if n := strings.Count(string(scored), string(want)); n != 1 {
			t.Errorf("%s: the failing CSV was scored %d times, want once\nlog:\n%s", algo, n, scored)
		}
	}
}

// TestWatchStopsOnSIGTERM checks that `watch` interrupts an in-flight
// oracle evaluation on SIGTERM instead of waiting for the scorer: the
// scorer sleeps 20 s, and the process must exit within 3 s of the signal.
func TestWatchStopsOnSIGTERM(t *testing.T) {
	dir, _ := statusFixture(t)
	base := filepath.Join(dir, "base.json")
	feed := filepath.Join(dir, "pass.csv")
	if out, code := run(t, "profile", "-data", feed, "-o", base); code != 0 {
		t.Fatalf("profile: exit code %d\n%s", code, out)
	}
	// slow.sh marks that it started, then outlasts the test's deadlines.
	writeFile(t, dir, "slow.sh", "touch \"$1\"\nexec sleep 20\n")
	marker := filepath.Join(dir, "scoring")
	cmd := exec.Command(binary, "watch", "-baseline", base, "-data", feed, "-interval", "1s",
		"-system-cmd", "sh "+filepath.Join(dir, "slow.sh")+" "+marker)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	t.Cleanup(func() {
		cmd.Process.Kill()
		<-done
	})
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(20 * time.Millisecond) {
		if _, err := os.Stat(marker); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the watch oracle never started")
		}
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	select {
	case err := <-done:
		done <- err // for the cleanup
		if elapsed := time.Since(start); elapsed > 3*time.Second {
			t.Errorf("watch exited %v after SIGTERM, want within 3s", elapsed)
		}
		if err != nil {
			t.Errorf("watch exited with %v after SIGTERM, want exit 0", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("watch still running 15s after SIGTERM")
	}
}
