package cluster

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"sync"
	"time"

	"cachecatalyst/internal/cachestore"
	"cachecatalyst/internal/core"
	"cachecatalyst/internal/telemetry"
)

// HotMapPath is the endpoint peers POST hot-map announcements to. Mount
// Exchange.Handler there (the catalystd daemon does this automatically in
// cluster mode).
const HotMapPath = "/_cluster/hotmap"

// hotMapMsg is one gossiped binding: this exact entity of this tenant's
// page, decorated, encodes to Enc. On the wire its lifetime is TTL, the
// nanoseconds it has left when sent, not a deadline, so a receiver whose
// clock runs behind the sender's trusts it no longer than the sender would:
// the receiver measures it from its own receive time. In the publish queue
// and the local store it is expires, on this instance's clock.
type hotMapMsg struct {
	Tenant  string `json:"tenant"`
	Page    string `json:"page"`
	Tag     string `json:"tag"`
	Enc     string `json:"enc"`
	TTL     int64  `json:"ttl"`
	expires int64  // unix nanoseconds
}

// ExchangeOptions configures an Exchange.
type ExchangeOptions struct {
	// Instance is this node's ID (its ring member name); stamped on
	// outgoing announcements for the debug surface.
	Instance string
	// Peers are the other instances' base URLs ("http://host:port");
	// announcements POST to each peer's HotMapPath.
	Peers []string
	// Telemetry, when set, registers the exchange's counters under
	// "cluster.*".
	Telemetry *telemetry.Registry
}

// No program sets the values below, so they are constants rather than
// options (DESIGN.md, "Frozen values"); a test reaches others through
// newExchange and the maxTTL field (export_test.go).
const (
	// sendTimeout bounds one peer POST: gossip must never hold the sender
	// hostage to a dead peer.
	sendTimeout = 2 * time.Second
	// maxStoreBytes bounds the store of received announcements.
	maxStoreBytes = 4 << 20
	// maxTTL caps how long a received announcement is trusted, whatever
	// lifetime the sender claims: a peer with a huge probe TTL must not pin
	// this instance to its staleness budget.
	maxTTL = 30 * time.Second
	// queueLen bounds the async publish queue; when full, announcements are
	// dropped (and counted), never blocked on.
	queueLen = 256
)

// ExchangeMetrics counts exchange activity.
type ExchangeMetrics struct {
	// Published counts announcements accepted for gossip (before fan-out).
	Published telemetry.Counter
	// Received counts announcements accepted from peers.
	Received telemetry.Counter
	// Rejected counts announcements refused, the sum of the four reasons
	// below.
	Rejected telemetry.Counter
	// A body over maxAnnouncementBytes (RejectedTooLarge), JSON that does
	// not parse or lacks tenant, page or tag (RejectedMalformed), an
	// encoding DecodeMap won't parse (RejectedBadEncoding), or no lifetime
	// left on arrival (RejectedExpired).
	RejectedTooLarge, RejectedMalformed, RejectedBadEncoding, RejectedExpired telemetry.Counter
	// Adopted counts Lookup hits — probe fan-outs avoided.
	Adopted telemetry.Counter
	// Dropped counts announcements discarded, the sum of the four reasons
	// below.
	Dropped telemetry.Counter
	// The publish queue was full (DroppedQueueFull); or, counted once per
	// peer, the POST could not be built (DroppedBuild), failed to send or
	// to be answered (DroppedSend), or was answered with a status other
	// than 200 (DroppedStatus).
	DroppedQueueFull, DroppedBuild, DroppedSend, DroppedStatus telemetry.Counter
}

// count adds one to a reason's counter and to its total.
func count(total, reason *telemetry.Counter) {
	total.Add(1)
	reason.Add(1)
}

// Exchange gossips hot X-Etag-Config encodings between instances. It
// implements the middleware's MapExchange hook: Publish fans a freshly
// built encoding out to peers asynchronously; Lookup consults what peers
// have announced. All methods are safe for concurrent use.
type Exchange struct {
	opts    ExchangeOptions
	client  *http.Client
	maxTTL  time.Duration
	local   *cachestore.Store[hotMapMsg]
	queue   chan hotMapMsg
	done    chan struct{}
	wg      sync.WaitGroup
	Metrics ExchangeMetrics
}

// NewExchange starts an exchange; Close releases its sender goroutine.
func NewExchange(opts ExchangeOptions) *Exchange {
	return newExchange(opts, &http.Client{Timeout: sendTimeout}, queueLen)
}

func newExchange(opts ExchangeOptions, client *http.Client, queueLen int) *Exchange {
	e := &Exchange{
		opts:   opts,
		client: client,
		maxTTL: maxTTL,
		queue:  make(chan hotMapMsg, queueLen),
		done:   make(chan struct{}),
	}
	e.local = cachestore.New[hotMapMsg](cachestore.Options[hotMapMsg]{
		MaxBytes: maxStoreBytes,
		SizeOf: func(key string, m hotMapMsg) int64 {
			return int64(len(key) + len(m.Enc) + 64)
		},
		Telemetry: opts.Telemetry,
		Name:      "cluster.hotmaps",
	})
	if reg := opts.Telemetry; reg != nil {
		m := &e.Metrics
		for name, c := range map[string]*telemetry.Counter{
			"published": &m.Published, "received": &m.Received, "adopted": &m.Adopted,
			"rejected": &m.Rejected, "rejected.too_large": &m.RejectedTooLarge, "rejected.malformed": &m.RejectedMalformed,
			"rejected.bad_encoding": &m.RejectedBadEncoding, "rejected.expired": &m.RejectedExpired,
			"dropped": &m.Dropped, "dropped.queue_full": &m.DroppedQueueFull, "dropped.build": &m.DroppedBuild,
			"dropped.send": &m.DroppedSend, "dropped.status": &m.DroppedStatus,
		} {
			reg.RegisterCounter("cluster."+name, c)
		}
	}
	e.wg.Add(1)
	go e.sender()
	return e
}

// Close stops the sender goroutine. Queued announcements are dropped.
func (e *Exchange) Close() {
	close(e.done)
	e.wg.Wait()
}

func hotMapKey(tenant, page, tag string) string {
	return tenant + "\x00" + page + "\x00" + tag
}

// Lookup returns a peer-announced encoding for the exact entity, if one is
// held and unexpired. Implements catalyst.MapExchange.
func (e *Exchange) Lookup(tenant, page, tag string) (string, int64, bool) {
	m, ok := e.local.Get(hotMapKey(tenant, page, tag))
	if !ok || time.Now().UnixNano() >= m.expires {
		return "", 0, false
	}
	e.Metrics.Adopted.Add(1)
	return m.Enc, m.expires, true
}

// Publish hands an encoding to the gossip queue. Never blocks: when the
// queue is full the announcement is dropped — a peer will pay one probe
// fan-out it could have skipped, nothing more. Implements
// catalyst.MapExchange. expires is on this instance's clock; what a peer
// receives is the lifetime left when the announcement is sent.
func (e *Exchange) Publish(tenant, page, tag, enc string, expires int64) {
	if len(e.opts.Peers) == 0 {
		return
	}
	select {
	case e.queue <- hotMapMsg{Tenant: tenant, Page: page, Tag: tag, Enc: enc, expires: expires}:
		e.Metrics.Published.Add(1)
	default:
		count(&e.Metrics.Dropped, &e.Metrics.DroppedQueueFull)
	}
}

// sender drains the publish queue, POSTing each announcement to every
// peer. Sequential fan-out on one goroutine is deliberate: gossip volume
// is one message per freshly probed page per TTL, and a slow peer
// backpressures into the bounded queue instead of spawning goroutines.
func (e *Exchange) sender() {
	defer e.wg.Done()
	for {
		select {
		case <-e.done:
			return
		case msg := <-e.queue:
			// The lifetime is read off the clock as late as possible, so time
			// spent queued is not trusted on the receiving end.
			msg.TTL = msg.expires - time.Now().UnixNano()
			body, err := json.Marshal(msg)
			if err != nil {
				continue
			}
			for _, peer := range e.opts.Peers {
				req, err := http.NewRequest(http.MethodPost, peer+HotMapPath, bytes.NewReader(body))
				if err != nil {
					count(&e.Metrics.Dropped, &e.Metrics.DroppedBuild)
					continue
				}
				req.Header.Set("Content-Type", "application/json")
				resp, err := e.client.Do(req)
				if err != nil {
					count(&e.Metrics.Dropped, &e.Metrics.DroppedSend)
					continue
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				_ = resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					count(&e.Metrics.Dropped, &e.Metrics.DroppedStatus)
				}
			}
		}
	}
}

// maxAnnouncementBytes bounds a POST body: a map encoding, which the
// middleware encodes within core.MaxEncodedMapBytes (catalyst's encodeMap),
// plus key fields and JSON overhead.
const maxAnnouncementBytes = core.MaxEncodedMapBytes + 64<<10

// Handler accepts peer announcements: POST HotMapPath with one hotMapMsg.
// Announcements are validated before they are trusted — the encoding must
// parse as an ETag map and must have lifetime left — so a confused or
// hostile peer cannot plant garbage a client would then be served. The
// lifetime runs from the receive time, capped at maxTTL.
func (e *Exchange) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		receipt := time.Now()
		if r.Method != http.MethodPost {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		body, err := io.ReadAll(io.LimitReader(r.Body, maxAnnouncementBytes+1))
		if err != nil || len(body) > maxAnnouncementBytes {
			count(&e.Metrics.Rejected, &e.Metrics.RejectedTooLarge)
			http.Error(w, "announcement too large", http.StatusRequestEntityTooLarge)
			return
		}
		var msg hotMapMsg
		if err := json.Unmarshal(body, &msg); err != nil || msg.Tenant == "" || msg.Page == "" || msg.Tag == "" {
			count(&e.Metrics.Rejected, &e.Metrics.RejectedMalformed)
			http.Error(w, "malformed announcement", http.StatusBadRequest)
			return
		}
		if _, err := core.DecodeMap(msg.Enc); err != nil {
			count(&e.Metrics.Rejected, &e.Metrics.RejectedBadEncoding)
			http.Error(w, "malformed encoding", http.StatusBadRequest)
			return
		}
		if msg.TTL <= 0 {
			count(&e.Metrics.Rejected, &e.Metrics.RejectedExpired)
			http.Error(w, "expired announcement", http.StatusBadRequest)
			return
		}
		// Cap the trust window to this instance's own tolerance.
		msg.expires = receipt.Add(min(time.Duration(msg.TTL), e.maxTTL)).UnixNano()
		e.local.Put(hotMapKey(msg.Tenant, msg.Page, msg.Tag), msg)
		e.Metrics.Received.Add(1)
		w.WriteHeader(http.StatusOK)
	})
}

// Mount wraps next so that HotMapPath reaches the exchange and everything
// else falls through — the one-line daemon integration.
func (e *Exchange) Mount(next http.Handler) http.Handler {
	h := e.Handler()
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == HotMapPath {
			h.ServeHTTP(w, r)
			return
		}
		next.ServeHTTP(w, r)
	})
}
