package browser

import (
	"fmt"
	"reflect"
	"sync"
	"unsafe"

	"cachecatalyst/internal/baselines"
)

// memoLog collects the memos NewParseMemo makes while it is on.
var memoLog struct {
	sync.Mutex
	on    bool
	memos []*ParseMemo
}

func init() {
	testHookNewMemo = func(m *ParseMemo) {
		memoLog.Lock()
		if memoLog.on {
			memoLog.memos = append(memoLog.memos, m)
		}
		memoLog.Unlock()
	}
}

// CollectMemos runs f and returns every memo made while it ran: the ones a
// sweep shares among a site's worlds and each browser's own.
func CollectMemos(f func()) []*ParseMemo {
	memoLog.Lock()
	memoLog.on, memoLog.memos = true, nil
	memoLog.Unlock()
	f()
	memoLog.Lock()
	defer memoLog.Unlock()
	memos := memoLog.memos
	memoLog.on, memoLog.memos = false, nil
	return memos
}

// MemoCounts is how many entries of each sort memos hold.
type MemoCounts struct {
	Identity, Content, Resolved, Manifests int
}

// Recheck derives every entry of memos afresh: it parses the bytes behind
// every identity key and every content key, and resolves a fresh parse of
// the body behind every resolved entry against that entry's document URL.
// It decodes every bundle manifest afresh too. It returns how many entries
// the memos hold and an error naming those whose stored value differs.
func Recheck(memos []*ParseMemo) (MemoCounts, error) {
	var n MemoCounts
	var bad []string
	texts := make(map[*parsed]bodyText)
	for _, m := range memos {
		for text, got := range m.byText {
			texts[got] = text
			if want := parse(text.kind, text.text); !reflect.DeepEqual(got, want) {
				bad = append(bad, fmt.Sprintf("content %d %.40q: %+v, a parse gives %+v", text.kind, text.text, got, want))
			}
		}
		for id, got := range m.byID {
			var text string
			if id.first == nil && id.n > 0 {
				bad = append(bad, fmt.Sprintf("identity %d: %d bytes keyed without an address", id.kind, id.n))
				continue
			}
			if id.n > 0 {
				text = string(unsafe.Slice(id.first, id.n))
			}
			if want := parse(id.kind, text); !reflect.DeepEqual(got, want) {
				bad = append(bad, fmt.Sprintf("identity %d %.40q: %+v, a parse gives %+v", id.kind, text, got, want))
			}
		}
		for text, got := range m.manifests {
			if want := baselines.DecodeManifest(text); !reflect.DeepEqual(got, want) {
				bad = append(bad, fmt.Sprintf("manifest %.40q: %+v, a decode gives %+v", text, got, want))
			}
		}
		n.Manifests += len(m.manifests)
		n.Identity += len(m.byID)
		n.Content += len(m.byText)
		n.Resolved += len(m.resolved)
	}
	for _, m := range memos {
		for doc, got := range m.resolved {
			text, ok := texts[doc.body]
			if !ok {
				bad = append(bad, fmt.Sprintf("resolved against %s%s: the body is in no memo", doc.host, doc.path))
				continue
			}
			if want := parse(text.kind, text.text).resolve(text.kind, doc.host, doc.path); !reflect.DeepEqual(got, want) {
				bad = append(bad, fmt.Sprintf("resolved %.40q against %s%s: %+v, a resolve gives %+v", text.text, doc.host, doc.path, got, want))
			}
		}
	}
	if len(bad) > 0 {
		total := len(bad)
		if total > 3 {
			bad = append(bad[:3], fmt.Sprintf("… %d more", total-3))
		}
		return n, fmt.Errorf("%d entries differ from a fresh parse or resolve: %q", total, bad)
	}
	return n, nil
}
