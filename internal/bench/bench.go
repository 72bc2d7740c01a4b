// Package bench is the measurement harness that regenerates every table
// and figure of the paper's evaluation (§V microbenchmarks, §VI
// applications) on the simulated fabric. Each experiment returns a Table
// that cmd/naperf prints and bench_test.go exercises; EXPERIMENTS.md
// records the paper-vs-measured comparison.
package bench

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// Table is a printable experiment result: one row per configuration, one
// column per reported series.
type Table struct {
	Name    string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
	// Metrics carries the experiment's headline numbers in machine-readable
	// form (naperf -json writes them to BENCH_<name>.json; CI regression
	// floors read them). Keys are experiment-defined, e.g. "p99_8".
	Metrics map[string]float64
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// SetMetric records one machine-readable headline number.
func (t *Table) SetMetric(key string, v float64) {
	if t.Metrics == nil {
		t.Metrics = make(map[string]float64)
	}
	t.Metrics[key] = v
}

// Fprint renders the table as aligned text.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "## %s — %s\n\n", t.Name, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "\nnote: %s\n", n)
	}
	fmt.Fprintln(w)
}

// Experiment produces one table.
type Experiment struct {
	Name  string
	Title string
	// Desc is the one-line summary naperf -list prints: what the
	// experiment measures and how, for someone picking one to run.
	Desc string
	Run  func() *Table
}

// Registry lists every reproducible experiment keyed by name.
func Registry() []Experiment {
	return []Experiment{
		{"fig1", "Pipeline stencil strong scaling, 1280x12800 (GMOPS)", "paper Fig.1: four-stage stencil pipeline throughput as PEs grow, NA vs MP synchronization", Fig1},
		{"fig2", "Protocol transaction audit (network packets per producer-consumer transfer)", "counts fabric packets per transfer to verify NA's one-transaction claim against MP/One-Sided", Fig2},
		{"fig3a", "Ping-pong latency, notified put vs One Sided vs Message Passing (us)", "paper Fig.3a: modeled LogGP half-RTT sweep over payload sizes for the three put-side schemes", Fig3a},
		{"fig3b", "Ping-pong latency, notified get vs One Sided get vs Message Passing (us)", "paper Fig.3b: same sweep for the get-side schemes (notified get vs flush-and-poll)", Fig3b},
		{"fig3c", "Ping-pong latency intra-node (shared memory) (us)", "paper Fig.3c: the put sweep with intra-node LogGP parameters (shared-memory window)", Fig3c},
		{"table1", "LogGP parameters fitted from unsynchronized transfers", "fits L/o/g/G from measured unsynchronized transfer times; sanity-checks the simulator's model", Table1},
		{"calls", "Call-overhead microbenchmarks (paper section V-A constants)", "per-call control-plane costs (NotifyInit/Start/Test/Wait) measured in isolation", Calls},
		{"fig4a", "Computation/communication overlap ratio", "paper Fig.4a: fraction of transfer time hidden behind compute as message size grows", Fig4a},
		{"fig4b", "Pipeline stencil weak scaling, 1280x1280 per PE (GMOPS)", "paper Fig.4b: stencil pipeline with fixed per-PE tile, throughput as PEs grow", Fig4b},
		{"fig4c", "16-ary tree reduction latency (us)", "paper Fig.4c: reduction over a 16-ary notification tree, NA vs MP wakeup chains", Fig4c},
		{"fig5", "Task-based Cholesky weak scaling, 32x32-double tiles (time ms / GFLOPS)", "paper Fig.5: tiled Cholesky on the dataflow runtime, NA-triggered task activation", Fig5},
		{"ablation", "Notification scheme ablation: queue vs counting vs overwriting", "swaps the notification data structure to show why the matched queue wins (paper section III)", Ablation},
		{"getnotify", "Notified-get protocols: uGNI vs InfiniBand vs unreliable network (paper sections IV-A, VIII)", "compares the three notified-get completion protocols the paper sketches per NIC capability", GetNotifyProtocols},
		{"uqdepth", "Matching cost vs unexpected-store depth", "adversarial store growth: cost of matching when notifications arrive before requests", UQDepth},
		{"notifymatch", "Matching-rate microbenchmark: Test cost vs outstanding requests K", "Test/Wait cost as armed-request count grows; exercises the class-bucketed matcher", NotifyMatch},
		{"msgmatch", "Message matching microbenchmark: control-plane cost vs queue depth / waiter count K", "same sweep for the two-sided message matcher (send/recv tag matching)", MsgMatch},
		{"databw", "Multi-producer put saturation: aggregate bandwidth and allocs/op vs producer count", "N producers flood one consumer window; lane fairness and allocation pressure", DataBW},
		{"halo", "2D halo exchange latency (introduction motif)", "four-neighbor ghost-cell exchange, the paper's motivating pattern, NA vs MP", Halo},
		{"model", "Analytic LogGP model vs simulation (paper section V-A)", "closed-form ping-pong prediction vs simulated time; validates the simulator", ModelValidation},
		{"sensitivity", "NA/MP advantage vs network latency (exascale claim)", "re-runs the ping-pong as wire latency scales to project the advantage at exascale", Sensitivity},
		{"taskflow", "Dataflow tasking system makespan: NA vs MP", "random layered DAG executed by the tasking runtime under both transports", Taskflow},
		{"eagerthreshold", "MP eager/rendezvous threshold ablation", "moves the MP eager/rendezvous switch to show the protocol cliff NA avoids", EagerThreshold},
		{"shmbw", "Shared-memory segment ring vs in-process Real engine: aggregate put bandwidth", "intra-host segment transport vs the zero-copy in-process engine; origin-side copies into window arenas", ShmBW},
		{"check", "Interleaving checker: schedule-space exploration statistics per model", "runs the bounded interleaving checker over its models and reports schedules explored", CheckStats},
		{"kvload", "Sharded KV under open-loop load: saturation and tail latency per transport", "open-loop (fixed-arrival-rate) generator against the notified-access KV on real/tcp/shm; p50/p99/p999", KVLoad},
		{"recovery", "Rank-death recovery: detection, restore, outage, goodput dip (TCP)", "kills a rank in a resilient loopback cluster and times detection, replica replay, and the end-to-end outage against a clean run", Recovery},
	}
}

// Lookup finds an experiment by name.
func Lookup(name string) (Experiment, bool) {
	for _, e := range Registry() {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}

// Names returns the sorted experiment names.
func Names() []string {
	var out []string
	for _, e := range Registry() {
		out = append(out, e.Name)
	}
	sort.Strings(out)
	return out
}

func us(v float64) string    { return fmt.Sprintf("%.3f", v) }
func f2(v float64) string    { return fmt.Sprintf("%.2f", v) }
func f4(v float64) string    { return fmt.Sprintf("%.4f", v) }
func itoa(v int) string      { return fmt.Sprintf("%d", v) }
func ratio(v float64) string { return fmt.Sprintf("%.2fx", v) }

// FprintMarkdown renders the table as GitHub-flavored markdown.
func (t *Table) FprintMarkdown(w io.Writer) {
	fmt.Fprintf(w, "### %s — %s\n\n", t.Name, t.Title)
	fmt.Fprintf(w, "| %s |\n", strings.Join(t.Columns, " | "))
	seps := make([]string, len(t.Columns))
	for i := range seps {
		seps[i] = "---"
	}
	fmt.Fprintf(w, "| %s |\n", strings.Join(seps, " | "))
	for _, r := range t.Rows {
		fmt.Fprintf(w, "| %s |\n", strings.Join(r, " | "))
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "\n*%s*\n", n)
	}
	fmt.Fprintln(w)
}

// FprintCSV renders the table as CSV (RFC-4180 quoting for cells that need
// it).
func (t *Table) FprintCSV(w io.Writer) {
	row := func(cells []string) {
		out := make([]string, len(cells))
		for i, c := range cells {
			if strings.ContainsAny(c, ",\"\n") {
				c = "\"" + strings.ReplaceAll(c, "\"", "\"\"") + "\""
			}
			out[i] = c
		}
		fmt.Fprintln(w, strings.Join(out, ","))
	}
	row(t.Columns)
	for _, r := range t.Rows {
		row(r)
	}
}
