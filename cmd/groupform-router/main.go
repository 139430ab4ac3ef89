// Command groupform-router is the stateless scatter-gather front of
// a sharded groupform deployment: S groupformd processes each serve
// one contiguous user slice (-shard i/S), and the router answers the
// single-node POST /form contract by fanning the request out to
// every shard (POST /shard/buckets), merging the candidate buckets
// through the solver's own merge kernel, and finalizing with group
// scores reassembled from per-shard partial stats, every probe of the
// plan asked in one POST /shard/scores per shard: two binary calls
// per shard and request. Under LM semantics the routed answer is
// byte-identical to one groupformd over the whole dataset; under AV
// it matches up to floating-point summation order (byte-identical on
// integer rating scales). See docs/ARCHITECTURE.md, "The
// scatter-gather tier".
//
// Usage:
//
//	groupform-router -listen :8090 \
//	    -shard http://10.0.0.1:8080 -shard http://10.0.0.2:8080 \
//	    [-shard-timeout 30s] [-retries 1] [-timeout 0] \
//	    [-drain-timeout 30s]
//
// -shard flags are ordered: the first names shard 0, the second
// shard 1, and so on; the order must match each daemon's -shard i/S
// flag (GET /healthz cross-checks and reports mismatches). -timeout
// is the routed-solve ceiling a request's timeout_ms clamps to;
// -shard-timeout and -retries govern each upstream call. Requests
// that set "anytime": true degrade gracefully when shards are down:
// as long as one shard answers, the response is 200 with
// degraded:true and a quality certificate covering the responding
// sub-population; without anytime, any shard loss is a 503
// shard_unavailable. SIGINT/SIGTERM drain like groupformd.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"groupform/internal/shard"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "groupform-router:", err)
		os.Exit(1)
	}
}

// shardURLFlags collects the ordered, repeatable -shard URL values.
type shardURLFlags []string

func (s *shardURLFlags) String() string { return strings.Join(*s, ",") }
func (s *shardURLFlags) Set(v string) error {
	*s = append(*s, strings.TrimRight(v, "/"))
	return nil
}

// shutdown carries the termination signal; package-level so tests
// can stop a running router without delivering a real signal.
var shutdown = make(chan os.Signal, 1)

const defaultDrainTimeout = 30 * time.Second

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("groupform-router", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	var shards shardURLFlags
	fs.Var(&shards, "shard", "base URL of the next shard, in shard order (repeatable; first flag = shard 0)")
	var (
		listen       = fs.String("listen", ":8090", "address to listen on (host:port; :0 picks a free port)")
		shardTimeout = fs.Duration("shard-timeout", 30*time.Second, "per-upstream-call deadline")
		retries      = fs.Int("retries", 1, "retries per failed upstream call (transport errors and 5xx only)")
		timeout      = fs.Duration("timeout", 0, "routed-solve ceiling; requests' timeout_ms clamps to it (0 = unbounded)")
		drainFlag    = fs.Duration("drain-timeout", defaultDrainTimeout, "maximum time to drain in-flight requests on SIGINT/SIGTERM (0 = 30s default)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *drainFlag < 0 {
		return fmt.Errorf("-drain-timeout must be non-negative, got %v", *drainFlag)
	}
	drain := *drainFlag
	if drain == 0 {
		drain = defaultDrainTimeout
	}

	rt, err := shard.NewRouter(shard.Config{
		Shards:       shards,
		ShardTimeout: *shardTimeout,
		Retries:      *retries,
		Timeout:      *timeout,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "groupform-router: routing %d shards\n", len(shards))

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "groupform-router: listening on http://%s\n", ln.Addr())

	hs := &http.Server{Handler: rt}
	signal.Notify(shutdown, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(shutdown)
	done := make(chan error, 1)
	go func() {
		<-shutdown
		fmt.Fprintf(out, "groupform-router: draining timeout=%v\n", drain)
		ctx, cancel := context.WithTimeout(context.Background(), drain)
		defer cancel()
		done <- hs.Shutdown(ctx)
	}()
	if err := hs.Serve(ln); err != http.ErrServerClosed {
		return err
	}
	if err := <-done; err != nil {
		fmt.Fprintf(out, "groupform-router: drain timeout after %v: %v\n", drain, err)
	}
	fmt.Fprintln(out, "groupform-router: drained, bye")
	return nil
}
