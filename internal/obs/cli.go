package obs

import (
	"fmt"
	"os"
)

// StartCLI wires a command's -obs-trace and -obs-addr flags. It switches
// metrics on when metrics is set or either flag is given (before any
// simulator is built, so components resolve their counters), opens the
// trace sink as the global cache-event hook, and serves the live endpoint
// on addr (a ring sink's snapshot at /events), printing the bound address
// to stderr. stop shuts the endpoint down, detaches the hook and closes
// the sink.
func StartCLI(traceSpec, addr string, metrics bool) (stop func(), err error) {
	if metrics || traceSpec != "" || addr != "" {
		Enable()
	}
	var sink Sink[CacheEvent] = Discard[CacheEvent]{}
	var ring *Ring[CacheEvent]
	if traceSpec != "" {
		var sample int
		if sink, ring, sample, err = Open[CacheEvent](traceSpec); err != nil {
			return nil, err
		}
		SetGlobalHook(NewSinkHook(sink, sample))
	}
	closeSink := func() {
		SetGlobalHook(nil)
		if err := sink.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "obs: closing trace sink: %v\n", err)
		}
	}
	bound, shutdown, err := Serve(addr, ring)
	if err != nil {
		closeSink()
		return nil, err
	}
	if bound != "" {
		fmt.Fprintf(os.Stderr, "[observability endpoint: http://%s]\n", bound)
	}
	return func() { shutdown(); closeSink() }, nil
}
