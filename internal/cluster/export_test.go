package cluster

import "net/http"

// tunedExchange is NewExchange with its peer POSTs made through client and
// a publish queue of queueLen: the one way a test reaches values other than
// the constants. maxTTL, the other, is a field a test sets before serving.
func tunedExchange(opts ExchangeOptions, client *http.Client, queueLen int) *Exchange {
	return newExchange(opts, client, queueLen)
}
