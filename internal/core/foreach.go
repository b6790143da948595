package core

import (
	"context"
	"sync"
	"sync/atomic"
)

// ForEach runs fn(i) for every i in [0, n) on up to workers goroutines,
// pulling indices from a shared counter; with one worker (or one index)
// it runs inline on the caller's goroutine. It stops handing out new
// indices once ctx is cancelled (in-flight calls complete) and returns
// ctx.Err() in that case. fn must confine its writes to index-private
// state. It is the package's one fan-out primitive: the query
// executor's candidate runs, the store's per-shard index builds and
// journal reads, and the refinement level's (B′, R′) pair workers all
// go through it.
func ForEach(ctx context.Context, workers, n int, fn func(i int)) error {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			fn(i)
		}
		return nil
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
	return ctx.Err()
}
