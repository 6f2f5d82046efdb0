package fscoherence

import (
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

// SIGKILL smoke: a campaign process killed with SIGKILL — no deferred
// cleanup, no atexit, the hardest crash short of power loss — must leave a
// journal from which a fresh Runner rebuilds the table byte for byte. The
// test re-executes its own binary as the victim.

// TestKillResumeCampaign doubles as parent and victim, selected by
// environment. With FSKILL_CHILD set it runs Fig 13 on a one-worker Runner
// journaling to FSKILL_JOURNAL, and blocks in the progress callback of its
// third executed cell: two records are on disk, and the third cell has run
// but has no record, so to the journal the process dies inside it. Otherwise
// it spawns itself as the child, SIGKILLs it once it blocks, resumes the
// journal and demands the uninterrupted run's table.
func TestKillResumeCampaign(t *testing.T) {
	if os.Getenv("FSKILL_CHILD") == "1" {
		f, err := os.Create(os.Getenv("FSKILL_JOURNAL"))
		if err != nil {
			t.Fatal(err)
		}
		r := NewRunner(1)
		r.SetStream(f)
		cells := 0
		r.SetProgress(func(string, Options, time.Duration, error) {
			if cells++; cells == 3 {
				if err := os.WriteFile(os.Getenv("FSKILL_READY"), nil, 0o644); err != nil {
					t.Error(err)
					return
				}
				time.Sleep(time.Hour) // hold still for the SIGKILL
			}
		})
		// Reachable only if the kill never lands, in which case the parent
		// has already failed.
		fig13.build(r, testScale)
		return
	}

	dir := t.TempDir()
	journal := filepath.Join(dir, "campaign.jsonl")
	ready := filepath.Join(dir, "ready")
	cmd := exec.Command(os.Args[0], "-test.run", "TestKillResumeCampaign$", "-test.count=1")
	cmd.Env = append(os.Environ(), "FSKILL_CHILD=1", "FSKILL_JOURNAL="+journal, "FSKILL_READY="+ready)
	if err := cmd.Start(); err != nil {
		t.Fatalf("spawning victim process: %v", err)
	}
	deadline := time.Now().Add(2 * time.Minute)
	for {
		if _, err := os.Stat(ready); err == nil {
			break
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			cmd.Wait()
			t.Fatal("victim never reached its third cell")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := cmd.Process.Kill(); err != nil { // SIGKILL: no cleanup runs
		t.Fatalf("SIGKILL: %v", err)
	}
	cmd.Wait()

	ref := NewRunner(1)
	want := fig13.build(ref, testScale).String()
	ref.Wait()
	total := ref.Report().Executed

	r := NewRunner(1)
	primed, err := r.ResumeJournal(journal)
	if err != nil {
		t.Fatalf("resuming the killed campaign's journal: %v", err)
	}
	got := fig13.build(r, testScale).String()
	r.Wait()
	rep := r.Report()
	if got != want {
		t.Errorf("resumed table differs from the uninterrupted run:\n got:\n%s\nwant:\n%s", got, want)
	}
	if primed < 1 || primed+rep.Executed != total {
		t.Errorf("primed %d + executed %d cells, want at least one primed and %d in all", primed, rep.Executed, total)
	}
}
