package browser

import (
	"fmt"
	"reflect"
	"sync"

	"cachecatalyst/internal/cssparse"
	"cachecatalyst/internal/htmlparse"
	"cachecatalyst/internal/jsexec"
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

// Recheck parses every entry's key afresh and returns how many entries the
// memo holds and an error naming those whose stored result differs.
func (m *ParseMemo) Recheck() (int, error) {
	var bad []string
	for text, got := range m.pages {
		rs, base, ok := htmlparse.ExtractPage(text)
		if !reflect.DeepEqual(got, pageRefs{rs, base, ok}) {
			bad = append(bad, fmt.Sprintf("html %.40q: %+v, a parse gives %+v %q %v", text, got, rs, base, ok))
		}
	}
	for text, got := range m.sheets {
		if want := cssparse.ExtractRefs(text); !reflect.DeepEqual(got, want) {
			bad = append(bad, fmt.Sprintf("css %.40q: %+v, a parse gives %+v", text, got, want))
		}
	}
	for text, got := range m.scripts {
		if want := jsexec.ExtractFetches(text); !reflect.DeepEqual(got, want) {
			bad = append(bad, fmt.Sprintf("js %.40q: %q, a parse gives %q", text, got, want))
		}
	}
	n := len(m.pages) + len(m.sheets) + len(m.scripts)
	if len(bad) > 0 {
		if len(bad) > 3 {
			bad = append(bad[:3], fmt.Sprintf("… %d more", len(bad)-3))
		}
		return n, fmt.Errorf("%d of %d entries differ from a fresh parse: %q", len(bad), n, bad)
	}
	return n, nil
}
