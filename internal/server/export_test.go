package server

import (
	"fmt"
	"reflect"
	"sync"

	"cachecatalyst/internal/decorate"
)

// NewTuned is New with the map resolve fanned out over mapConcurrency
// workers and, when maxMapBytes > 0, the encoded map bound at that many
// bytes: the one way to reach values other than the constants.
func NewTuned(content Content, opts Options, mapConcurrency, maxMapBytes int) *Server {
	s := New(content, opts)
	s.tune.mapConcurrency = mapConcurrency
	if maxMapBytes > 0 {
		s.tune.maxMapBytes = maxMapBytes
	}
	return s
}

// renderMemoLog collects the memos NewRenderMemo makes while it is on.
var renderMemoLog struct {
	sync.Mutex
	on    bool
	memos []*RenderMemo
}

func init() {
	testHookNewRenderMemo = func(m *RenderMemo) {
		renderMemoLog.Lock()
		if renderMemoLog.on {
			renderMemoLog.memos = append(renderMemoLog.memos, m)
		}
		renderMemoLog.Unlock()
	}
}

// CollectRenderMemos runs f and returns every render memo made while it ran.
func CollectRenderMemos(f func()) []*RenderMemo {
	renderMemoLog.Lock()
	renderMemoLog.on, renderMemoLog.memos = true, nil
	renderMemoLog.Unlock()
	f()
	renderMemoLog.Lock()
	defer renderMemoLog.Unlock()
	memos := renderMemoLog.memos
	renderMemoLog.on, renderMemoLog.memos = false, nil
	return memos
}

// Recheck renders every entry's page afresh from its Resource and URL and
// returns how many entries the memo holds and an error naming those whose
// stored render differs.
func (m *RenderMemo) Recheck() (int, error) {
	var bad []string
	for key, got := range m.renders {
		if want := decorate.NewRender(key.page, string(key.res.Body)); !reflect.DeepEqual(got, want) {
			bad = append(bad, fmt.Sprintf("%s, version %s: the stored render differs from a fresh one", key.page, key.res.ETag))
		}
	}
	if len(bad) > 0 {
		return len(m.renders), fmt.Errorf("%d of %d renders differ from a fresh render: %q", len(bad), len(m.renders), bad)
	}
	return len(m.renders), nil
}
