package sweep

import (
	"encoding/json"
	"errors"
	"fmt"

	"bgploop/internal/durable"
)

// journalVersion is bumped when the entry schema changes; entries with a
// different version are ignored on load.
const journalVersion = 2

// journalEntry is one completed trial: the JSON payload of one
// durable.Log frame.
type journalEntry struct {
	V     int `json:"v"`
	Trial int `json:"trial"`
	// Key is the trial's content address at the time it completed; an
	// entry is replayed only when the address still matches, so a changed
	// scenario spec invalidates the checkpoint per trial.
	Key  string          `json:"key"`
	Data json.RawMessage `json:"data"`
}

// JournalOptions tunes a journal's durability behaviour.
type JournalOptions struct {
	// FS routes the journal's file operations; nil means the real
	// filesystem. Fault-injection tests pass a durable.FaultFS so
	// ENOSPC/EIO/torn-write schedules exercise the production code path.
	FS durable.FS
	// SyncEvery is the fsync cadence on Append: 0 (the default) never
	// fsyncs during the run — appends reach the OS, which survives a
	// process kill but not a machine crash; 1 fsyncs every append; N
	// fsyncs every N appends. Close always fsyncs, whatever the cadence,
	// so a completed sweep's checkpoint is durable.
	SyncEvery int
}

// Journal is an append-only checkpoint of completed sweep trials on a
// durable.Log. Every finished trial is one checksummed record, so a
// sweep killed mid-flight loses at most the record being written — a
// torn or corrupt line is dropped on load — and a restarted sweep
// resumes from the completed set instead of re-simulating it.
type Journal struct {
	log       *durable.Log
	entries   map[int]journalEntry
	syncEvery int
	sinceSync int
}

// OpenJournal opens the checkpoint file at path with default options
// (real filesystem, no fsync until Close). With resume=true any
// existing entries are loaded for replay; otherwise the file is
// truncated and the sweep checkpoints from scratch.
func OpenJournal(path string, resume bool) (*Journal, error) {
	return OpenJournalOpts(path, resume, JournalOptions{})
}

// OpenJournalOpts is OpenJournal with an explicit filesystem and sync
// policy.
func OpenJournalOpts(path string, resume bool, o JournalOptions) (*Journal, error) {
	if path == "" {
		return nil, errors.New("sweep: empty journal path")
	}
	fsys := durable.OrOS(o.FS)
	if !resume {
		if err := fsys.Remove(path); err != nil && !durable.IsNotExist(err) {
			return nil, fmt.Errorf("sweep: open journal: %w", err)
		}
	}
	log, payloads, err := durable.Open(fsys, path)
	if err != nil {
		return nil, fmt.Errorf("sweep: open journal: %w", err)
	}
	j := &Journal{log: log, entries: map[int]journalEntry{}, syncEvery: o.SyncEvery}
	for _, p := range payloads {
		var e journalEntry
		if json.Unmarshal(p, &e) != nil || e.V != journalVersion || e.Key == "" || e.Data == nil {
			continue
		}
		j.entries[e.Trial] = e
	}
	return j, nil
}

// Len returns the number of loaded (resumable) entries.
func (j *Journal) Len() int { return len(j.entries) }

// Lookup returns the journaled result of trial i if one was loaded and
// its content address still matches key.
func (j *Journal) Lookup(trial int, key string) ([]byte, bool) {
	e, ok := j.entries[trial]
	if !ok || e.Key != key {
		return nil, false
	}
	return e.Data, true
}

// Append checkpoints one completed trial. Once it returns, a process
// kill cannot lose the entry; under a positive sync policy it is
// additionally fsynced every SyncEvery appends, so a machine crash
// cannot either. A trial already checkpointed under the same key is
// not rewritten. Append must only be called from one goroutine (the
// executor's merging loop).
func (j *Journal) Append(trial int, key string, data []byte) error {
	if e, ok := j.entries[trial]; ok && e.Key == key {
		return nil
	}
	e := journalEntry{V: journalVersion, Trial: trial, Key: key, Data: json.RawMessage(data)}
	line, err := json.Marshal(e)
	if err != nil {
		return err
	}
	if err := j.log.Append(line); err != nil {
		return err
	}
	if j.syncEvery > 0 {
		j.sinceSync++
		if j.sinceSync >= j.syncEvery {
			if err := j.log.Sync(); err != nil {
				return fmt.Errorf("sweep: journal sync: %w", err)
			}
			j.sinceSync = 0
		}
	}
	j.entries[trial] = e
	return nil
}

// Close fsyncs and closes the journal file. The fsync is unconditional
// — whatever the append cadence, a journal that closed cleanly is
// durable.
func (j *Journal) Close() error {
	return j.log.Close()
}
