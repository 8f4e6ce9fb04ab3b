PYTHON ?= python
export PYTHONPATH := src

## Tier 2 smoke gates, one `name:test_file` pair each: `make <name>-smoke`
## runs benchmarks/<test_file>.py. What each gate asserts is described
## below; .github/workflows/ci.yml runs this same list.
SMOKES := perf:test_perf_matchmaking fault:test_fault_smoke obs:test_obs_smoke \
          overload:test_e17_overload routing:test_e18_routing \
          recovery:test_e19_recovery health:test_e20_health shard:test_e21_sharding
SMOKE_TARGETS := $(foreach s,$(SMOKES),$(firstword $(subst :, ,$(s)))-smoke)

.PHONY: test bench all smoke results-check perf-pairs mem-attr op-classes knobs knockouts $(SMOKE_TARGETS)

## Tier 1: the full unit/integration suite. Must always be green.
test:
	$(PYTHON) -m pytest -x -q

## perf-smoke: the registry query path. Fails if the indexed
## path ever evaluates more profiles than the linear scan, if the
## evaluation reduction at 10k advertisements drops below 5x, or if the
## 100k scaling sweep breaks its count-based sub-linear gates (fitted
## evaluations-per-query growth exponent < 1.0, absolute cap at 100k),
## or if a query builds more QueryHit objects than it returns.
## Rewrites BENCH_matchmaking.json and BENCH_query_100k.json at the repo
## root.

## fault-smoke: the canonical E3/E11 fault scenarios plus the
## anti-entropy convergence sweep and the circuit-breaker degraded-latency
## check. Fails if replicated stores do not reconverge within bounded
## rounds or the invariant sweeps find bookkeeping rot.

## obs-smoke: two same-seed E7 WAN runs must export
## byte-identical trace JSONL, the trace must cover the query path
## end-to-end, and E1/E5/E7 tables must carry latency percentiles.

## overload-smoke: replays the E17 query flood at a fixed seed
## and asserts the shape of overload protection: lease renewals outlive
## queries under saturation, BUSY retry-after hints are monotone in
## queue depth, goodput plateaus instead of cliffing, and the flood is
## deterministic.

## routing-smoke: replays the E18 skewed flood at a fixed seed
## and asserts that least-loaded routing beats static order on p99
## discovery latency AND in-window goodput at 4x single-registry
## capacity, and that adaptive routing is same-seed deterministic.

## recovery-smoke: replays the E19 whole-LAN blackout at a
## fixed seed and asserts the durability gates: >= 99% of non-expired
## advertisements recovered from local WAL+snapshot replay alone with
## zero re-publish traffic, time-to-full-query-success at least 5x
## better than memory-only, injected torn/corrupt disk faults survived
## without crashing recovery, and the default (durability off)
## configuration attaching no disks at all.

## health-smoke: replays the E20 fault sequence at a fixed seed
## and asserts the runtime health layer's gates: zero alarms on the
## clean control run, every injected fault class (flood, crash,
## partition) raising its matched alarm in-window with a flight-recorder
## dump attached, byte-identical same-seed alarm timelines and dumps,
## and the default (health off) configuration building no monitor and
## exporting byte-identical traces for the same faulted scenario.

## shard-smoke: replays the E21 sharded-federation scenario at
## a fixed seed and asserts its gates: per-node store load and digest
## bytes tracking ~K*R/S on the 100k-ad ring sweep, join/leave moving
## no more than K*R/S copies, probe success >= 0.99 while R-1 replicas
## of a shard are fail-stopped, a clean placement/convergence sweep at
## the end, and byte-identical same-seed traces.
$(SMOKE_TARGETS): %-smoke:
	$(PYTHON) -m pytest benchmarks/$(patsubst $*:%,%,$(filter $*:%,$(SMOKES))).py -q

## Full experiment/benchmark sweep (slow).
bench:
	$(PYTHON) -m pytest benchmarks -q

smoke: $(SMOKE_TARGETS)

## results-check: regenerate every experiment/ablation table and let git
## say which committed file under benchmarks/results moved (none should,
## unless the change means to re-record it). Left out: the harness
## self-test, test_perf_matchmaking (it rewrites the root BENCH_*.json),
## and the two kinds of file with wall-clock columns, e5.txt and perf_*.txt.
results-check:
	$(PYTHON) -m pytest benchmarks -q --ignore=benchmarks/perf \
		--ignore=benchmarks/test_perf_matchmaking.py
	git diff --exit-code --stat -- benchmarks/results \
		':!benchmarks/results/e5.txt' ':!benchmarks/results/perf_*.txt'

## perf-pairs: `make perf-pairs PARENT=<rev> [CHANGE=<rev>] WORKLOAD=<name>
## [PAIRS=10] [SEED=1000]` runs benchmarks/perf/run.py at BENCHMARK.json's
## run length on <rev> (exported to a temp dir) and on this tree (or on
## CHANGE, exported too), PAIRS times, alternating which goes first, and
## prints per end-to-end metric both medians and quartiles,
## wins/ties/losses and gain / regression / unchanged / unresolved (see
## tools/perf_pairs.py). ~40 s per pair.
## WORKLOAD=all runs every workload of BENCHMARK.json in turn, one table
## each, and fails if any regressed. CHANGE=$(PARENT) is an A/A run: the
## noise floor a claim has to clear.
PAIRS ?= 10
SEED ?= 1000
perf-pairs:
	$(PYTHON) tools/perf_pairs.py --parent $(PARENT) --workload $(WORKLOAD) \
		--pairs $(PAIRS) --seed $(SEED) $(if $(CHANGE),--change $(CHANGE))

## mem-attr: `make mem-attr [WORKLOAD=wan_100k] [SEED=1000] [TREE=<checkout>]
## [GROWTH=N]` builds one benchmark deployment (imported from
## benchmarks/perf, which stays untouched) and prints where its memory is:
## first VmRSS / VmHWM after each set-up phase, then — in further
## processes, under tracemalloc — MiB and bytes per generated profile
## record held by the inputs, and MiB and bytes per advertisement retained
## by the build, each by module and by allocating line (see
## tools/mem_attr.py).
## With GROWTH=N it prints instead the bytes per operation that N
## operations after a warm round leave behind, by module and by line: what
## grows with a run's length. TREE points it at another checkout, e.g. an
## exported parent. ~2 min for wan_100k.
TREE ?= .
MEM_ATTR = $(PYTHON) tools/mem_attr.py --workload $(or $(WORKLOAD),wan_100k) --seed $(SEED) --tree $(TREE)
mem-attr:
ifdef GROWTH
	$(MEM_ATTR) --growth $(GROWTH)
else
	$(MEM_ATTR) --phases
	$(MEM_ATTR) --inputs
	$(MEM_ATTR)
endif

## op-classes: `make op-classes [WORKLOAD=lan_fallback] [SEED=1000]
## [TREE=<checkout>]` runs the untraced pass of benchmarks/perf/run.py
## (imported, untouched) and splits its discovers into plain ones, those
## during which a registry probe was sent and those during which probe
## copies arrived: per class the count, the kref median, that median over
## the p50 and its share of the p98.5-p99.5 band (see tools/op_classes.py).
## ~20 s for lan_fallback.
op-classes:
	$(PYTHON) tools/op_classes.py --workload $(or $(WORKLOAD),lan_fallback) \
		--seed $(SEED) --tree $(TREE)

## knobs: regenerate docs/KNOBS.md, every configuration value with the
## files under src/, benchmarks/ and tools/ that set it and the values
## they pass (see tools/knob_audit.py). tests/test_config_surface.py
## fails when the committed table is stale.
knobs:
	$(PYTHON) tools/knob_audit.py --write docs/KNOBS.md

## knockouts: `make knockouts [REV=HEAD]` exports REV (git archive, so
## benchmarks/results here is never written) and, for each mechanism
## declared in tools/knockout.py, replaces its method from outside src/ by
## a no-op, runs the tier-1 tests naming its module, the pins and
## results-check's test run, and rewrites docs/KNOCKOUTS.md: per mechanism
## the tests that fail and the results lines that move. ~11 min for the
## table on two cores; tests/test_knockout.py checks the declared targets
## resolve and each has one row.
REV ?= HEAD
knockouts:
	$(PYTHON) tools/knockout.py --rev $(REV) --write docs/KNOCKOUTS.md

all: test smoke
