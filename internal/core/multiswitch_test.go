package core

import (
	"testing"
)

func TestMultiSwitchAdmissionBudget(t *testing.T) {
	cfg := SwitchConfig{Workers: 4, PoolSize: 64, SlotElems: 32, LossRecovery: true, JobID: 1}
	ref, err := NewSwitch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	per := ref.MemoryBytes()

	m := NewMultiSwitch(2*per + per/2) // Room for exactly two jobs.
	for job := uint16(1); job <= 2; job++ {
		cfg.JobID = job
		if _, err := m.AdmitJob(cfg); err != nil {
			t.Fatalf("job %d rejected: %v", job, err)
		}
	}
	cfg.JobID = 3
	if _, err := m.AdmitJob(cfg); err == nil {
		t.Fatal("third job admitted beyond budget")
	}
	if got := m.MemoryBytes(); got != 2*per {
		t.Errorf("MemoryBytes = %d, want %d", got, 2*per)
	}
	if got := m.Jobs(); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("Jobs = %v", got)
	}
	if m.Job(1) == nil || m.Job(3) != nil {
		t.Error("Job lookup wrong")
	}
	if err := m.ReleaseJob(1); err != nil {
		t.Fatal(err)
	}
	cfg.JobID = 3
	if _, err := m.AdmitJob(cfg); err != nil {
		t.Errorf("job 3 rejected after release: %v", err)
	}
	if err := m.ReleaseJob(42); err == nil {
		t.Error("releasing unknown job succeeded")
	}
}

func TestMultiSwitchDuplicateAndInvalidJobs(t *testing.T) {
	m := NewMultiSwitch(0)
	cfg := SwitchConfig{Workers: 1, PoolSize: 1, SlotElems: 1, LossRecovery: true, JobID: 7}
	if _, err := m.AdmitJob(cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := m.AdmitJob(cfg); err == nil {
		t.Error("duplicate job admitted")
	}
	if _, err := m.AdmitJob(SwitchConfig{JobID: 8}); err == nil {
		t.Error("invalid config admitted")
	}
}
