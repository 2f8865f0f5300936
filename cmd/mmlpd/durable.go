package main

import (
	"encoding/json"
	"fmt"
	"time"

	"maxminlp"
	"maxminlp/internal/wal"
	"maxminlp/internal/wire"
)

// WAL record types. Each record's body is the exact request body the
// daemon acknowledged — replay re-applies it through the same
// conversion code that served it, which is what makes a restarted
// daemon bit-identical to the one that crashed.
const (
	walRecLoad     = "load"
	walRecUnload   = "unload"
	walRecWeights  = "weights"
	walRecTopology = "topology"
)

// walLoad is the body of a load record: the instance's canonical JSON
// encoding (round-trips float64 exactly) plus the session options and
// identity the handler assigned.
type walLoad struct {
	Seq                    int             `json:"seq"`
	Name                   string          `json:"name,omitempty"`
	Loaded                 time.Time       `json:"loaded"`
	Instance               json.RawMessage `json:"instance"`
	CollaborationOblivious bool            `json:"collaborationOblivious,omitempty"`
	Workers                int             `json:"workers,omitempty"`
}

// walState is the snapshot payload: every loaded instance's canonical
// state, enough to rebuild the sessions without replaying history.
type walState struct {
	NextID    int           `json:"nextId"`
	Instances []walInstance `json:"instances"`
}

type walInstance struct {
	ID string `json:"id"`
	walLoad
}

// defaultWALSnapshotEvery bounds replay work: a snapshot is cut after
// this many appends, so recovery replays at most one snapshot plus one
// batch of records.
const defaultWALSnapshotEvery = 256

// openWAL opens (or creates) the data directory's log and stages the
// recovered snapshot and records for replayWAL. The server answers
// `server/recovering` until the replay finishes.
func (s *server) openWAL(dir string, policy wal.SyncPolicy, snapshotEvery int) error {
	if snapshotEvery <= 0 {
		snapshotEvery = defaultWALSnapshotEvery
	}
	log, snap, recs, err := wal.Open(dir, wal.Options{
		Policy:   policy,
		OnAppend: func() { s.obs.walAppends.Inc() },
		OnFsync:  func(d time.Duration) { s.obs.walFsync.ObserveDuration(d) },
	})
	if err != nil {
		return fmt.Errorf("opening WAL in %s: %w", dir, err)
	}
	s.wal, s.walSnap, s.walRecs, s.walEvery = log, snap, recs, snapshotEvery
	s.recovering.Store(true)
	return nil
}

// replayWAL rebuilds the server's instances from the staged snapshot
// and record suffix, in commit order. Every apply goes through the same
// conversion helpers as the live handlers, so the rebuilt sessions are
// bit-identical to the acknowledged state — the restart bit-identity
// tests pin this against golden traces.
func (s *server) replayWAL() error {
	start := time.Now()
	// The recovering gate keeps mutating handlers out, but /healthz
	// still reads the instance map — hold s.mu across the rebuild.
	s.mu.Lock()
	defer s.mu.Unlock()
	snap, recs := s.walSnap, s.walRecs
	s.walSnap, s.walRecs = nil, nil
	if snap != nil {
		var st walState
		if err := json.Unmarshal(snap.State, &st); err != nil {
			return fmt.Errorf("decoding WAL snapshot at LSN %d: %w", snap.LSN, err)
		}
		s.nextID = st.NextID
		for _, wi := range st.Instances {
			if err := s.reviveInstance(wi.ID, wi.walLoad); err != nil {
				return fmt.Errorf("snapshot instance %s: %w", wi.ID, err)
			}
		}
	}
	for _, rec := range recs {
		if err := s.replayRecord(rec); err != nil {
			return fmt.Errorf("replaying LSN %d (%s %s): %w", rec.LSN, rec.Type, rec.ID, err)
		}
	}
	s.obs.instances.Set(float64(len(s.instances)))
	s.obs.recoverySec.Set(time.Since(start).Seconds())
	s.logf("mmlpd: recovered %d instances (%d log records) in %s; WAL at LSN %d digest %s",
		len(s.instances), len(recs), time.Since(start).Round(time.Millisecond), s.wal.LSN(), s.wal.Digest())
	return nil
}

// reviveInstance rebuilds one managed session from its canonical state.
func (s *server) reviveInstance(id string, ld walLoad) error {
	in := new(maxminlp.Instance)
	if err := json.Unmarshal(ld.Instance, in); err != nil {
		return fmt.Errorf("instance JSON: %w", err)
	}
	sess := maxminlp.NewSolver(in, maxminlp.GraphOptions{CollaborationOblivious: ld.CollaborationOblivious})
	if ld.Workers > 0 {
		sess.SetWorkers(ld.Workers)
	} else if s.solveWorkers > 0 {
		// The WAL records the request verbatim; a session loaded under
		// the daemon default recovers under the (current) daemon default.
		sess.SetWorkers(s.solveWorkers)
	}
	sess.SetObs(s.obs.solve)
	m := &managed{
		ID: id, Name: ld.Name, Loaded: ld.Loaded, Agents: in.NumAgents(),
		seq: ld.Seq, sess: sess, xmemo: s.obs.newXMemo(),
		oblivious: ld.CollaborationOblivious, workers: ld.Workers,
	}
	s.instances[id] = m
	if ld.Seq > s.nextID {
		s.nextID = ld.Seq
	}
	return nil
}

func (s *server) replayRecord(rec wal.Record) error {
	switch rec.Type {
	case walRecLoad:
		var ld walLoad
		if err := json.Unmarshal(rec.Body, &ld); err != nil {
			return err
		}
		return s.reviveInstance(rec.ID, ld)
	case walRecUnload:
		if m, ok := s.instances[rec.ID]; ok {
			m.sess.SetObs(nil)
		}
		delete(s.instances, rec.ID)
		return nil
	case walRecWeights:
		m, ok := s.instances[rec.ID]
		if !ok {
			return fmt.Errorf("no such instance")
		}
		var req weightsRequest
		if err := json.Unmarshal(rec.Body, &req); err != nil {
			return err
		}
		return m.sess.UpdateWeights(weightDeltas(&req))
	case walRecTopology:
		m, ok := s.instances[rec.ID]
		if !ok {
			return fmt.Errorf("no such instance")
		}
		var req topologyRequest
		if err := json.Unmarshal(rec.Body, &req); err != nil {
			return err
		}
		ups := make([]maxminlp.TopoUpdate, len(req.Ops))
		for i, spec := range req.Ops {
			up, err := topoUpdate(spec)
			if err != nil {
				return fmt.Errorf("op %d: %w", i, err)
			}
			ups[i] = up
		}
		_, err := m.sess.UpdateTopology(ups)
		return err
	default:
		return fmt.Errorf("unknown WAL record type %q", rec.Type)
	}
}

// weightDeltas converts a weights request, shared by the live handler,
// the WAL replay and (indirectly) the worker replicas — one conversion,
// one semantics.
func weightDeltas(req *weightsRequest) []maxminlp.WeightDelta {
	deltas := make([]maxminlp.WeightDelta, 0, len(req.Resources)+len(req.Parties))
	for _, p := range req.Resources {
		deltas = append(deltas, maxminlp.WeightDelta{Kind: maxminlp.ResourceWeight, Row: p.Row, Agent: p.Agent, Coeff: p.Coeff})
	}
	for _, p := range req.Parties {
		deltas = append(deltas, maxminlp.WeightDelta{Kind: maxminlp.PartyWeight, Row: p.Row, Agent: p.Agent, Coeff: p.Coeff})
	}
	return deltas
}

// walAppend logs one committed operation. The caller holds commitMu
// shared (and the instance lock where one exists), so the append is
// ordered identically to the apply — "acked ⇒ logged". A disk failure
// degrades durability, not availability: it is logged loudly and the
// daemon keeps serving.
func (s *server) walAppend(typ, id string, body any) {
	if s.wal == nil {
		return
	}
	if _, err := s.wal.Append(typ, id, body); err != nil {
		s.logf("mmlpd: WAL append %s %s FAILED (durability degraded): %v", typ, id, err)
	}
}

// maybeSnapshot cuts a snapshot once enough records accumulated since
// the last one. It takes commitMu exclusively — no handler can be
// between its apply and its append — so the serialized state and the
// log position agree exactly.
func (s *server) maybeSnapshot() {
	if s.wal == nil || s.wal.AppendsSinceSnapshot() < s.walEvery {
		return
	}
	s.commitMu.Lock()
	defer s.commitMu.Unlock()
	if s.wal.AppendsSinceSnapshot() < s.walEvery {
		return // another handler snapshotted while we waited
	}
	st, err := s.snapshotState()
	if err != nil {
		s.logf("mmlpd: WAL snapshot state: %v", err)
		return
	}
	if err := s.wal.WriteSnapshot(st); err != nil {
		s.logf("mmlpd: WAL snapshot write: %v", err)
		return
	}
	s.logf("mmlpd: WAL snapshot at LSN %d (%d instances)", s.wal.LSN(), len(st.Instances))
}

// snapshotState serializes every instance's canonical state. The caller
// holds commitMu exclusively; instance locks are still taken because
// solves (which don't commit) run outside commitMu.
func (s *server) snapshotState() (*walState, error) {
	s.mu.Lock()
	ms := make([]*managed, 0, len(s.instances))
	for _, m := range s.instances {
		ms = append(ms, m)
	}
	nextID := s.nextID
	s.mu.Unlock()
	sortManaged(ms)
	st := &walState{NextID: nextID, Instances: make([]walInstance, 0, len(ms))}
	for _, m := range ms {
		m.mu.Lock()
		raw, err := json.Marshal(m.sess.Instance())
		m.mu.Unlock()
		if err != nil {
			return nil, fmt.Errorf("instance %s: %w", m.ID, err)
		}
		st.Instances = append(st.Instances, walInstance{
			ID: m.ID,
			walLoad: walLoad{
				Seq: m.seq, Name: m.Name, Loaded: m.Loaded, Instance: raw,
				CollaborationOblivious: m.oblivious, Workers: m.workers,
			},
		})
	}
	return st, nil
}

// journalSeeds converts the replayed instances into the cluster's
// initial patch journal, so workers joining a restarted coordinator
// catch up exactly like rejoiners.
func (s *server) journalSeeds() ([]wire.Load, error) {
	s.mu.Lock()
	ms := make([]*managed, 0, len(s.instances))
	for _, m := range s.instances {
		ms = append(ms, m)
	}
	s.mu.Unlock()
	sortManaged(ms)
	seeds := make([]wire.Load, 0, len(ms))
	for _, m := range ms {
		raw, err := json.Marshal(m.sess.Instance())
		if err != nil {
			return nil, fmt.Errorf("instance %s: %w", m.ID, err)
		}
		seeds = append(seeds, wire.Load{
			ID: m.ID, Instance: raw,
			CollaborationOblivious: m.oblivious, Workers: m.workers,
		})
	}
	return seeds, nil
}
