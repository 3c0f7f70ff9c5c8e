package serve

import (
	"context"
	"fmt"
	"regexp"
	"sort"
	"sync"
	"time"

	"github.com/jstar-lang/jstar/internal/core"
	"github.com/jstar-lang/jstar/internal/exec"
	"github.com/jstar-lang/jstar/internal/gamma"
	"github.com/jstar-lang/jstar/internal/lang"
	"github.com/jstar-lang/jstar/internal/wal"
)

// TenantConfig is the JSON body of a create-tenant request: a named JStar
// program plus the per-tenant engine options and quotas. Source is
// compiled server-side, so a tenant is fully described by one POST.
type TenantConfig struct {
	Name   string `json:"name"`
	Source string `json:"source"`
	// Strategy is an exec strategy name ("auto", "sequential", "forkjoin");
	// empty means auto.
	Strategy string `json:"strategy,omitempty"`
	// StorePlan maps table names to gamma kind specs ("hash:2",
	// "columnar", ...), overriding the planner's defaults.
	StorePlan map[string]string `json:"store_plan,omitempty"`
	// MaxInflightPuts caps concurrent ingestion requests for this tenant
	// (further puts get 429); 0 uses the server default. Since admission is
	// primarily backlog-driven (AdmitPendingFraction), this is the fallback
	// cap bounding request-handler goroutines rather than ingress pressure.
	MaxInflightPuts int `json:"max_inflight_puts,omitempty"`
	// AdmitPendingFraction is the ingress-backpressure admission threshold:
	// a put is rejected with 429 when the session's pending (accepted but
	// unabsorbed) ingress events exceed this fraction of the ingress bound
	// (core.Options.IngressRing), so a flooding client is shed *before* its
	// requests block on backpressure. 0 uses the server default; negative
	// disables the backlog check, leaving only the inflight semaphore.
	AdmitPendingFraction float64 `json:"admit_pending_fraction,omitempty"`
	// Durability, when present, makes the tenant durable: ingested tuples
	// are journaled to a write-ahead log under WalDir, Gamma is
	// checkpointed on the configured cadence, and creating a tenant over
	// an existing WAL directory recovers its state before serving.
	Durability *DurabilityConfig `json:"durability,omitempty"`
}

// DurabilityConfig is the JSON form of core.DurabilityOptions for one
// tenant. The WAL's segment identity is the tenant name, so a directory
// cannot silently be re-attached to a different tenant.
type DurabilityConfig struct {
	// WalDir is the log directory (required).
	WalDir string `json:"wal_dir"`
	// GroupCommitMillis / GroupCommitBytes tune the group commit: a
	// pending group is fsynced when it reaches the byte threshold or the
	// deadline, whichever first. Zero means the engine defaults
	// (2ms / 64 KiB).
	GroupCommitMillis int `json:"group_commit_millis,omitempty"`
	GroupCommitBytes  int `json:"group_commit_bytes,omitempty"`
	// CheckpointEvery writes a Gamma checkpoint every N quiescent
	// boundaries that absorbed new input; 0 means checkpoint only on
	// demand (POST /v1/tenants/{name}/checkpoint).
	CheckpointEvery int `json:"checkpoint_every,omitempty"`
	// SegmentBytes is the WAL segment rotation threshold (0 = 4 MiB).
	SegmentBytes int64 `json:"segment_bytes,omitempty"`
}

var tenantNameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// Tenant is one hosted program: a compiled Program, its live Session, the
// ingestion quota semaphore, and the tenant's subscription hub.
type Tenant struct {
	Name    string
	Config  TenantConfig
	Prog    *core.Program
	Session *core.Session

	inflight  chan struct{} // fallback ingestion cap; acquire per put request
	admitFrac float64       // backlog admission threshold (<0 disables)
	subs      *subHub
}

// admitPut decides whether one ingestion request may proceed, without
// blocking. Admission is driven by ingress backpressure: when the
// session's unabsorbed backlog exceeds admitFrac of the ingress bound the
// put is shed here, with an error naming the pressure, instead of letting
// the request wait for room deep inside PutBatch. The inflight semaphore
// remains as a fallback cap on concurrent put handlers. Release with
// releasePut on nil error.
func (t *Tenant) admitPut() error {
	if t.admitFrac >= 0 {
		if pending, capacity := t.Session.IngressBacklog(); float64(pending) > t.admitFrac*float64(capacity) {
			return fmt.Errorf("serve: tenant %s ingress backlog %d exceeds %.0f%% of ingress bound %d",
				t.Name, pending, t.admitFrac*100, capacity)
		}
	}
	select {
	case t.inflight <- struct{}{}:
		return nil
	default:
		return fmt.Errorf("serve: tenant %s ingestion quota exhausted", t.Name)
	}
}

func (t *Tenant) releasePut() { <-t.inflight }

// registry is the multi-tenant session table: name → Tenant, guarded by a
// mutex (creation compiles a program, but the critical section only
// reserves the name — compilation and session start run outside the lock).
type registry struct {
	mu         sync.Mutex
	tenants    map[string]*Tenant
	maxTenants int
	// walFS, when non-nil, supplies the WAL filesystem for durable
	// tenants whose config names no wal_dir — the crash-fault injection
	// hook (Config.TestWALFS). Production configs always name a dir.
	walFS func(tenant string) wal.FS
}

func newRegistry(maxTenants int, walFS func(string) wal.FS) *registry {
	return &registry{tenants: make(map[string]*Tenant), maxTenants: maxTenants, walFS: walFS}
}

// create compiles cfg.Source, starts a session with the tenant's options,
// and registers the tenant. The name is reserved before compiling so two
// concurrent creates of the same name cannot both win.
func (r *registry) create(ctx context.Context, cfg TenantConfig, defaultInflight int, defaultAdmit float64) (*Tenant, error) {
	if !tenantNameRE.MatchString(cfg.Name) {
		return nil, fmt.Errorf("serve: bad tenant name %q (want %s)", cfg.Name, tenantNameRE)
	}
	r.mu.Lock()
	if _, dup := r.tenants[cfg.Name]; dup {
		r.mu.Unlock()
		return nil, errTenantExists
	}
	if r.maxTenants > 0 && len(r.tenants) >= r.maxTenants {
		r.mu.Unlock()
		return nil, errTenantQuota
	}
	r.tenants[cfg.Name] = nil // reserve the name while compiling
	r.mu.Unlock()

	t, err := r.buildTenant(ctx, cfg, defaultInflight, defaultAdmit)
	r.mu.Lock()
	if err != nil {
		delete(r.tenants, cfg.Name)
	} else {
		r.tenants[cfg.Name] = t
	}
	r.mu.Unlock()
	return t, err
}

func (r *registry) buildTenant(ctx context.Context, cfg TenantConfig, defaultInflight int, defaultAdmit float64) (*Tenant, error) {
	prog, err := lang.CompileSource(cfg.Source)
	if err != nil {
		return nil, fmt.Errorf("serve: compile tenant %s: %w", cfg.Name, err)
	}
	opts := core.Options{Quiet: true}
	if cfg.Strategy != "" {
		st, err := exec.ParseStrategy(cfg.Strategy)
		if err != nil {
			return nil, fmt.Errorf("serve: tenant %s: %w", cfg.Name, err)
		}
		opts.Strategy = st
	}
	if len(cfg.StorePlan) > 0 {
		opts.StorePlan = make(gamma.StorePlan, len(cfg.StorePlan))
		for k, v := range cfg.StorePlan {
			opts.StorePlan[k] = v
		}
	}
	if d := cfg.Durability; d != nil {
		var fs wal.FS
		if d.WalDir == "" && r.walFS != nil {
			fs = r.walFS(cfg.Name)
		}
		if d.WalDir == "" && fs == nil {
			return nil, fmt.Errorf("serve: tenant %s: durability.wal_dir is required", cfg.Name)
		}
		opts.Durability = &core.DurabilityOptions{
			Dir:             d.WalDir,
			FS:              fs,
			Identity:        cfg.Name,
			GroupBytes:      d.GroupCommitBytes,
			GroupInterval:   time.Duration(d.GroupCommitMillis) * time.Millisecond,
			SegmentBytes:    d.SegmentBytes,
			CheckpointEvery: d.CheckpointEvery,
		}
	}
	sess, err := prog.Start(ctx, opts)
	if err != nil {
		return nil, fmt.Errorf("serve: start tenant %s: %w", cfg.Name, err)
	}
	// Start returns while the coordinator is still replaying a recovered
	// WAL tail. The tenant is not published before that replay has reached
	// its fixpoint, so the first query already sees every recovered row.
	if sess.Recovery() != nil {
		if err := sess.Quiesce(ctx); err != nil {
			sess.Close()
			return nil, fmt.Errorf("serve: recover tenant %s: %w", cfg.Name, err)
		}
	}
	inflight := cfg.MaxInflightPuts
	if inflight <= 0 {
		inflight = defaultInflight
	}
	admit := cfg.AdmitPendingFraction
	if admit == 0 {
		admit = defaultAdmit
	}
	return &Tenant{
		Name:      cfg.Name,
		Config:    cfg,
		Prog:      prog,
		Session:   sess,
		inflight:  make(chan struct{}, inflight),
		admitFrac: admit,
		subs:      newSubHub(),
	}, nil
}

// get returns the named tenant, or nil if absent or still being created.
func (r *registry) get(name string) *Tenant {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.tenants[name]
}

// remove unregisters and closes the named tenant, reporting whether it
// existed.
func (r *registry) remove(name string) bool {
	r.mu.Lock()
	t := r.tenants[name]
	if t != nil {
		delete(r.tenants, name)
	}
	r.mu.Unlock()
	if t == nil {
		return false
	}
	t.Session.Close()
	return true
}

// list returns the live tenants sorted by name.
func (r *registry) list() []*Tenant {
	r.mu.Lock()
	out := make([]*Tenant, 0, len(r.tenants))
	for _, t := range r.tenants {
		if t != nil {
			out = append(out, t)
		}
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

func (r *registry) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.tenants)
}

// closeAll closes every tenant session (server shutdown).
func (r *registry) closeAll() {
	for _, t := range r.list() {
		t.Session.Close()
	}
}
