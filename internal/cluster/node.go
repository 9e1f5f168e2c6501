package cluster

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"edgetune/internal/fault"
	"edgetune/internal/obs"
	"edgetune/internal/obs/flight"
	"edgetune/internal/store"
)

// shard is one cluster node pair: a primary durable store the tuner
// runs against, and a follower directory the primary's WAL is shipped
// to. Jobs on a shard serialize on mu — a shard is one simulated
// machine, and the same-seed digest contract needs a deterministic
// execution order per store.
type shard struct {
	name string
	dir  string // <cluster dir>/<name>

	// reg is the shard's private registry: the primary store's
	// instruments land here, keyed apart from every other shard's, so
	// the cluster can serve a merged per-shard metrics view. Replica
	// shipping counters stay on the shared cluster registry — they
	// describe the cluster's replication fabric, not one store.
	reg *obs.Registry

	// fr is the shard's flight recorder (nil = flight disabled). It
	// outlives the primary store: a failover's promoted store keeps
	// recording into the same ring, so one dossier spans the kill, the
	// promotion, and the resumed run.
	fr *flight.Recorder

	mu sync.Mutex // serializes jobs and failover on this shard

	primary    *store.Durable
	primaryDir string // "primary" until a failover promotes "follower"
	rep        *replica

	// degraded marks a shard past its one failover: the follower seat
	// is empty, so further kills are not survivable and the kill hooks
	// stand down.
	degraded bool
}

func (s *shard) snapshotPath(sub string) string {
	return filepath.Join(s.dir, sub, "store.json")
}

// openShard creates the shard's primary/follower directories, opens
// the primary durable store with WAL shipping attached, and opens the
// follower's log for appends.
func openShard(name, dir string, inj *fault.Injector, reg *obs.Registry, fr *flight.Recorder) (*shard, error) {
	s := &shard{name: name, dir: dir, primaryDir: "primary", reg: obs.NewRegistry(), fr: fr}
	for _, sub := range []string{"primary", "follower"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("cluster: shard %s: %w", name, err)
		}
	}
	rep, err := newReplica(s.name, s.snapshotPath("follower")+".wal", inj, reg, fr)
	if err != nil {
		return nil, err
	}
	prim, err := store.OpenDurable(store.DurableOptions{
		SnapshotPath: s.snapshotPath("primary"),
		Metrics:      s.reg,
		Shipper:      rep,
		Flight:       fr,
	})
	if err != nil {
		rep.close()
		return nil, fmt.Errorf("cluster: shard %s: %w", name, err)
	}
	s.primary = prim
	s.rep = rep
	return s, nil
}

// failover promotes the follower: the lagged backlog is drained into
// its log (catch-up replay), the deposed primary's directory is
// abandoned untouched, and a fresh durable store is opened over the
// follower's shipped WAL — a full recovery replay, exactly what a real
// standby does at promotion. The shard comes back degraded (no
// follower seat left), so at most one failover per shard. Callers hold
// s.mu.
func (s *shard) failover() error {
	if s.degraded {
		return fmt.Errorf("cluster: shard %s already failed over", s.name)
	}
	if err := s.rep.catchUp(); err != nil {
		return fmt.Errorf("cluster: shard %s catch-up: %w", s.name, err)
	}
	if err := s.rep.close(); err != nil {
		return fmt.Errorf("cluster: shard %s seal follower log: %w", s.name, err)
	}
	// The dead primary's disk stays as the kill left it: recoverable
	// evidence, never mutated after the crash.
	s.primary.Abandon()
	promoted, err := store.OpenDurable(store.DurableOptions{
		SnapshotPath: s.snapshotPath("follower"),
		Metrics:      s.reg,
		Flight:       s.fr,
	})
	if err != nil {
		return fmt.Errorf("cluster: shard %s promote follower: %w", s.name, err)
	}
	s.primary = promoted
	s.primaryDir = "follower"
	s.degraded = true
	return nil
}

// close seals the shard's stores: the primary compacts via its normal
// Close, and a still-standing follower is materialized once (open +
// close, i.e. recovery replay + compaction) to prove its shipped log
// is a complete, loadable store — the invariant the CI gate's
// store-verify pass checks on every replica directory.
func (s *shard) close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var firstErr error
	if err := s.rep.catchUp(); err != nil && firstErr == nil {
		firstErr = err
	}
	if err := s.rep.close(); err != nil && firstErr == nil {
		firstErr = err
	}
	if err := s.primary.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	if !s.degraded {
		follower, err := store.OpenDurable(store.DurableOptions{SnapshotPath: s.snapshotPath("follower")})
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("cluster: shard %s follower replay: %w", s.name, err)
			}
		} else if err := follower.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// replica ships a primary's WAL frames to its follower's log. Ship
// runs after the frame's fsync with the primary store's WAL lock held
// (reads of the store go on beside it), so it must only touch its own
// state. Frames are raw on-disk encodings (length, CRC, payload):
// appending them in order to the follower's WAL file yields a log the
// normal recovery path replays verbatim.
//
// The injected network faults act per frame: a partition drops the
// frame outright (the follower has a hole — harmless, because puts are
// independent and checkpoints are full-state blobs, so replay just
// resumes from an older rung), and follower lag parks frames in a FIFO
// backlog that the next successful ship — or the failover's catch-up
// pass — flushes in order, so the follower log never reorders.
type replica struct {
	shard string
	site  string // "ship/<shard>", the network faults' site
	inj   *fault.Injector
	fr    *flight.Recorder

	mu      sync.Mutex
	file    store.File
	path    string
	pending [][]byte // lagged frames, FIFO
	closed  bool

	mShipped *obs.Counter
	mDropped *obs.Counter
	mLagged  *obs.Counter
}

func newReplica(shard, path string, inj *fault.Injector, reg *obs.Registry, fr *flight.Recorder) (*replica, error) {
	f, err := store.OSFS{}.OpenAppend(path)
	if err != nil {
		return nil, fmt.Errorf("cluster: open follower log %s: %w", path, err)
	}
	return &replica{
		shard:    shard,
		site:     "ship/" + shard,
		inj:      inj,
		fr:       fr,
		file:     f,
		path:     path,
		mShipped: reg.Counter("cluster.ship.shipped"),
		mDropped: reg.Counter("cluster.ship.dropped"),
		mLagged:  reg.Counter("cluster.ship.lagged"),
	}, nil
}

// Ship implements store.Shipper. It is done with the frame when it
// returns: the frame is written, dropped, or parked as a copy. Ship
// events ride the same operation-indexed clock as the primary's WAL
// appends (sequence as milliseconds), so a dossier interleaves them
// correctly.
func (r *replica) Ship(seq int64, frame []byte) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return
	}
	at := time.Duration(seq) * time.Millisecond
	if r.inj.Should(fault.NetPartition, r.site, int(seq)) {
		r.mDropped.Inc()
		r.fr.Record(at, flight.KindShip, r.shard, "dropped", seq, int64(len(frame)))
		return
	}
	if r.inj.Should(fault.FollowerLag, r.site, int(seq)) {
		// The frame is borrowed (store.Shipper): a parked one is a copy.
		r.pending = append(r.pending, append([]byte(nil), frame...))
		r.mLagged.Inc()
		r.fr.Record(at, flight.KindShip, r.shard, "lagged", seq, int64(len(frame)))
		return
	}
	r.flushLocked()
	if r.appendLocked(frame) {
		r.mShipped.Inc()
		r.fr.Record(at, flight.KindShip, r.shard, "shipped", seq, int64(len(frame)))
	}
}

// appendLocked writes one frame to the follower log. Replication is
// asynchronous by design: a follower write error only degrades the
// replica (the primary's ack already happened), it never fails the
// primary's mutation.
func (r *replica) appendLocked(frame []byte) bool {
	if _, err := r.file.Write(frame); err != nil {
		return false
	}
	if err := r.file.Sync(); err != nil {
		return false
	}
	return true
}

// flushLocked drains the lagged backlog in order.
func (r *replica) flushLocked() {
	for len(r.pending) > 0 {
		if !r.appendLocked(r.pending[0]) {
			return
		}
		r.pending = r.pending[1:]
		r.mShipped.Inc()
	}
}

// catchUp drains any lagged frames — the promotion-time catch-up
// replay, and the close-time seal.
func (r *replica) catchUp() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil
	}
	r.flushLocked()
	if len(r.pending) > 0 {
		return fmt.Errorf("cluster: %d lagged frames stuck on %s", len(r.pending), r.path)
	}
	return r.file.Sync()
}

// close stops shipping and closes the follower log handle. Idempotent.
func (r *replica) close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil
	}
	r.closed = true
	return r.file.Close()
}
