package serve

import (
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"sysml/internal/codegen"
	"sysml/internal/matrix"
)

// writeProfile saves a valid profile whose constants differ from the
// paper defaults and returns its path and constants.
func writeProfile(t *testing.T) (string, codegen.CostModel) {
	t.Helper()
	p := codegen.Profile{
		Version: codegen.ProfileVersion, CreatedUnix: time.Now().Unix(), Samples: 12,
		ReadBW: 8e9, WriteBW: 4e9, FlopRate: 2e10, BroadcastBW: 1e9,
	}
	path := filepath.Join(t.TempDir(), "profile.json")
	if err := p.Save(path); err != nil {
		t.Fatal(err)
	}
	return path, p.CostModel()
}

// TestEngineSharedCalibration: every tenant session of a WithProfile engine
// — acquired concurrently, reused after Release — and every Engine.NewSession
// session starts with the profile's constants, whether WithProfile comes
// before or after WithConfig.
func TestEngineSharedCalibration(t *testing.T) {
	path, want := writeProfile(t)
	cfg := codegen.DefaultConfig()
	cfg.Costs.ReadBW = 1e9 // a configured constant the profile overrides
	for name, opts := range map[string][]EngineOption{
		"profile last":  {WithMaxWorkers(4), WithTenantQuota(TenantQuota{MaxSessions: 2}), WithConfig(cfg), WithProfile(path)},
		"profile first": {WithProfile(path), WithMaxWorkers(4), WithTenantQuota(TenantQuota{MaxSessions: 2}), WithConfig(cfg)},
	} {
		t.Run(name, func(t *testing.T) {
			e := NewEngine(opts...)
			const tenants, reps = 4, 3
			var wg sync.WaitGroup
			for ti := 0; ti < tenants; ti++ {
				wg.Add(1)
				go func(ti int) {
					defer wg.Done()
					tn := e.Tenant(fmt.Sprintf("tenant-%d", ti))
					for r := 0; r < reps; r++ {
						s, err := tn.Acquire(time.Second)
						if err != nil {
							t.Errorf("acquire: %v", err)
							return
						}
						if s.Config.Costs != want {
							t.Errorf("tenant session costs %+v, profile %+v", s.Config.Costs, want)
						}
						ec := matrix.Ctx{Par: s.Par, Buf: s.Alloc}
						s.Env["X"] = ec.Rand(512, 64, 1, -1, 1, int64(ti))
						s.Env["Y"] = ec.Rand(512, 64, 1, -1, 1, int64(ti)+1)
						if err := s.Run(`s = sum(X * Y)`); err != nil {
							t.Errorf("run: %v", err)
						}
						tn.Release(s)
					}
				}(ti)
			}
			wg.Wait()
			if s := e.NewSession(codegen.DefaultConfig()); s.Config.Costs != want {
				t.Errorf("Engine.NewSession costs %+v, profile %+v", s.Config.Costs, want)
			}
		})
	}
}

// TestEngineCalibrationBadProfile: an unreadable profile path must not
// poison the engine — its sessions keep the configured constants.
func TestEngineCalibrationBadProfile(t *testing.T) {
	e := NewEngine(WithProfile(filepath.Join(t.TempDir(), "missing.json")))
	s, err := e.Tenant("a").Acquire(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if s.Config.Costs != codegen.DefaultCostModel() {
		t.Errorf("bad profile changed the tenant session's model: %+v", s.Config.Costs)
	}
	cfg := codegen.DefaultConfig()
	cfg.Costs.ReadBW = 1e9
	if s := e.NewSession(cfg); s.Config.Costs != cfg.Costs {
		t.Errorf("bad profile replaced the caller's constants: %+v", s.Config.Costs)
	}
}

// TestEngineNoCalibration: without WithProfile the engine's sessions run
// the configured constants: the engine's for tenants, the caller's for
// Engine.NewSession.
func TestEngineNoCalibration(t *testing.T) {
	cfg := codegen.DefaultConfig()
	cfg.Costs.ComputeBW = 1e10
	e := NewEngine(WithConfig(cfg))
	s, err := e.Tenant("a").Acquire(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if s.Config.Costs != cfg.Costs {
		t.Errorf("tenant session costs %+v, engine config %+v", s.Config.Costs, cfg.Costs)
	}
	if s := e.NewSession(codegen.DefaultConfig()); s.Config.Costs != codegen.DefaultCostModel() {
		t.Errorf("Engine.NewSession replaced the caller's constants: %+v", s.Config.Costs)
	}
}
