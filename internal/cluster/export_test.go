package cluster

import (
	"net/http"

	"cachecatalyst/internal/vclock"
)

// tunedExchange is NewExchange reading every age off clock, with its peer
// POSTs made through client and a publish queue of queueLen: the one way a
// test reaches values other than the constants.
func tunedExchange(opts ExchangeOptions, clock *vclock.Virtual, client *http.Client, queueLen int) *Exchange {
	return newExchange(opts, clock, client, queueLen)
}
