package internal_test

import (
	"fmt"
	"testing"

	"repro/internal/cholesky"
	"repro/internal/halo"
	"repro/internal/runtime"
	"repro/internal/stencil"
	"repro/internal/tree"
)

// TestAppsOnShmArena runs every variant of the stencil, tree, Cholesky
// and halo applications on the in-process shm cluster, where every window
// sits in a heap window arena and origins copy into it themselves. Their
// verifiers check values; under the race detector the run also checks
// ordering: only the ring entry that publishes a notification orders an
// origin's copy before the target's reads, so an application that reads
// window bytes before the notification (or flush and barrier) that
// publishes them races.
func TestAppsOnShmArena(t *testing.T) {
	const ranks = 4
	apps := map[string]func(p *runtime.Proc) error{}
	for _, v := range stencil.Variants {
		apps[fmt.Sprint("stencil/", v)] = func(p *runtime.Proc) error {
			if res := stencil.Run(p, stencil.Options{Rows: 10, Cols: 16, Iters: 2, Variant: v}); p.Rank() == 0 && !res.Valid {
				return fmt.Errorf("corner %v", res.Corner)
			}
			return nil
		}
	}
	for _, v := range tree.Variants {
		apps[fmt.Sprint("tree/", v)] = func(p *runtime.Proc) error {
			if res := tree.Run(p, tree.Options{Arity: 2, Len: 6, Variant: v, Rounds: 2}); p.Rank() == 0 && !res.Valid {
				return fmt.Errorf("invalid reduction")
			}
			return nil
		}
	}
	for _, v := range cholesky.Variants {
		apps[fmt.Sprint("cholesky/", v)] = func(p *runtime.Proc) error {
			if res := cholesky.Run(p, cholesky.Options{Tiles: 4, B: 8, Variant: v, Validate: true}); !res.Valid {
				return fmt.Errorf("max error %g", res.MaxError)
			}
			return nil
		}
	}
	for _, v := range halo.Variants {
		apps[fmt.Sprint("halo/", v)] = func(p *runtime.Proc) error {
			if res := halo.Run(p, halo.Options{PX: 2, PY: 2, BX: 8, BY: 8, Iters: 3, Variant: v}); !res.Valid {
				return fmt.Errorf("block differs from the serial reference")
			}
			return nil
		}
	}
	for name, app := range apps {
		t.Run(name, func(t *testing.T) {
			errs := runtime.RunLocalShmCluster(runtime.Options{Ranks: ranks}, func(p *runtime.Proc) {
				if err := app(p); err != nil {
					panic(err)
				}
			})
			for r, err := range errs {
				if err != nil {
					t.Errorf("rank %d: %v", r, err)
				}
			}
		})
	}
}
