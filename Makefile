PYTHON ?= python
PYTHONPATH := src

.PHONY: test test-chaos test-safety test-control test-emergency test-power test-service test-health test-rollout golden lint bench bench-test bench-check paper-check example-autoscaling wal-soak clean-cache

test:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest tests/ -q

# Chaos suite: worker-kill recovery, fault-plan determinism, WAL
# SIGKILL/resume, and the failure-recovery experiment, repeated over a
# fixed seed matrix. The conftest arms a faulthandler watchdog
# (REPRO_TEST_TIMEOUT_S) so a hung pool dumps tracebacks and fails
# instead of wedging CI; CHAOS_TIMEOUT (seconds) bounds both the
# watchdog and the subprocess waits inside the chaos tests. This suite
# and test-service open WALs and sockets, so both run in dev mode with
# ResourceWarning (and pytest's report of one raised in a finalizer)
# as an error: a handle left for the garbage collector fails its test.
REPRO_CHAOS_SEEDS ?= 1 2 7
CHAOS_TIMEOUT ?= 300
test-chaos:
	REPRO_CHAOS_SEEDS="$(REPRO_CHAOS_SEEDS)" \
		REPRO_TEST_TIMEOUT_S=$(CHAOS_TIMEOUT) CHAOS_TIMEOUT=$(CHAOS_TIMEOUT) \
		PYTHONPATH=$(PYTHONPATH) $(PYTHON) -X dev -W error::ResourceWarning \
		-m pytest tests/test_faults.py tests/test_engine_chaos.py \
		tests/test_journal.py -q -W error::pytest.PytestUnraisableExceptionWarning

# Safety suite: sensor-fault transforms, robust fusion, the fail-safe
# supervisor, and the cross-module monotonicity properties.
test-safety:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest tests/test_sensors.py \
		tests/test_safety.py tests/test_properties.py -q

# Control-plane suite: retry policy, circuit breaker, lossy channel,
# command bus, dead-man lease, reconciliation loop, and the
# partition-recovery acceptance contract (naive stays overclocked,
# robust reverts within the lease bound; signatures bit-identical)
# over the REPRO_CHAOS_SEEDS matrix.
test-control:
	REPRO_CHAOS_SEEDS="$(REPRO_CHAOS_SEEDS)" \
		PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest tests/test_control.py \
		tests/test_partition_recovery.py -q

# Emergency suite: the facility fault models, the degradation ladder,
# and the heat-wave ride-through acceptance contract (naive trips
# Tjmax, laddered rides through with zero violations and a bounded
# overclock restore; signatures bit-identical) over the
# REPRO_CHAOS_SEEDS matrix, under the same faulthandler watchdog as
# test-chaos.
test-emergency:
	REPRO_CHAOS_SEEDS="$(REPRO_CHAOS_SEEDS)" \
		REPRO_TEST_TIMEOUT_S=$(CHAOS_TIMEOUT) \
		PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest tests/test_emergency.py \
		tests/test_heatwave_ride_through.py -q

# Power suite: the delivery tree and breaker curves, priority-aware
# capping down to the tree's limits, the budget arbiter invariants
# (conservation, monotonicity), and the
# oversubscription-crisis acceptance contract (naive trips the row
# breaker, arbitrated survives with zero trips; signatures
# bit-identical) over the REPRO_CHAOS_SEEDS matrix.
test-power:
	REPRO_CHAOS_SEEDS="$(REPRO_CHAOS_SEEDS)" \
		REPRO_TEST_TIMEOUT_S=$(CHAOS_TIMEOUT) \
		PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest tests/test_power_tree.py \
		tests/test_power_delivery.py tests/test_power_arbiter.py \
		tests/test_oversubscription_crisis.py -q

# Live-service suite: the overload-control stack unit tests, the
# service WAL SIGKILL/resume chaos test, the in-process HTTP load test
# (>= 1k requests against a ticking server), and the overload-storm
# acceptance contract (naive goodput collapses, robust holds the p99
# SLO with a bounded queue; signatures bit-identical) over the
# REPRO_CHAOS_SEEDS matrix, under the same faulthandler watchdog and
# the same leak-checking dev mode as test-chaos.
test-service:
	REPRO_CHAOS_SEEDS="$(REPRO_CHAOS_SEEDS)" \
		REPRO_TEST_TIMEOUT_S=$(CHAOS_TIMEOUT) CHAOS_TIMEOUT=$(CHAOS_TIMEOUT) \
		PYTHONPATH=$(PYTHONPATH) $(PYTHON) -X dev -W error::ResourceWarning \
		-m pytest tests/test_service.py tests/test_service_chaos.py \
		tests/test_service_http.py tests/test_overload_storm.py -q \
		-W error::pytest.PytestUnraisableExceptionWarning

# Silicon-health suite: the latent part/MCA/detector/screening/audit
# unit tests, the fleet health ladder (derate → quarantine → screen →
# reinstate-or-retire, capacity budget, bounded re-arm), and the SDC
# hunt acceptance contract (naive leaks silent corruptions and
# reboot-loops crashed hosts, the health pipeline holds zero escapes /
# zero crashes with bounded capacity loss; run signatures
# bit-identical) over the REPRO_CHAOS_SEEDS matrix.
test-health:
	REPRO_CHAOS_SEEDS="$(REPRO_CHAOS_SEEDS)" \
		REPRO_TEST_TIMEOUT_S=$(CHAOS_TIMEOUT) \
		PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest tests/test_health.py \
		tests/test_health_ladder.py tests/test_sdc_hunt.py -q

# Rollout suite: the wave planner / canary analyzer / controller unit
# tests (freeze gates, stall detection, staged retreat, snapshot and
# journal resume) and the envelope-rollout acceptance contract (naive
# big-bang crashes a fleet fraction and leaks SDCs, the canary rollout
# contains exposure to wave 0's blast budget, rolls back, and resumes
# bit-identically after a SIGKILL; run signatures bit-identical) over
# the REPRO_CHAOS_SEEDS matrix, under the same faulthandler watchdog
# as test-chaos.
test-rollout:
	REPRO_CHAOS_SEEDS="$(REPRO_CHAOS_SEEDS)" \
		REPRO_TEST_TIMEOUT_S=$(CHAOS_TIMEOUT) \
		PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest tests/test_rollout.py \
		tests/test_envelope_rollout.py -q

# Regenerate the golden pins under tests/golden/ at seeds 1, 2 and 7:
# faults.json (fault timelines, callbacks, validations and
# faults-scenario output hashes), des.json (shrunk Fig. 15/16
# auto-scaler runs, a 300-tick service signature chain, the overload
# storm in naive and robust mode, an SDC-audited service chain
# through the power-cap, vm-crash and overclock ops, and service chains
# on two configs that reach the dispatch edge branches) and ladders.json
# (every field of both arms of the degraded-telemetry, partition,
# envelope-rollout, oversubscription, SDC-hunt and heat-wave
# comparisons, timelines by signature, and the SHA-256 of every seeded
# comparison's rendered text).
# tests/test_golden_faults.py, tests/test_golden_des.py and
# tests/test_golden_ladders.py only read them, so any behaviour change
# shows up as a reviewable diff of the JSON.
golden:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) tests/golden/faults_pins.py
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) tests/golden/des_pins.py
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) tests/golden/ladders_pins.py

lint:
	ruff check src tests benchmarks

bench:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest benchmarks/ -q --benchmark-only

# Regenerate the paper tables under benchmarks/results/ through the bench
# target (~3 min) and fail if a committed table changed or a new file
# appeared there, so a change that moves a table cannot land silently.
# Every file there is a table that bench rewrites.
paper-check: bench
	git diff --exit-code -- benchmarks/results
	@untracked="$$(git ls-files --others --exclude-standard -- benchmarks/results)"; \
	if [ -n "$$untracked" ]; then \
		echo "untracked files in benchmarks/results:"; echo "$$untracked"; exit 1; \
	fi

# The Fig. 16 auto-scaler demo (~23 s), the one example tier-1 does not
# run (tests/test_examples.py runs the other five). It prints each
# mode's P95 and mean latency from LatencyRecorder; fails on a non-zero
# exit.
example-autoscaling:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) examples/autoscaling_demo.py

# The end-to-end benchmark harness's own tests (~40 s): the pinned
# workload digests, the sliced ramp and its traced twin, and the
# tracer's wrappers, which any change to those hot paths must keep
# working. In the DES they wrap Simulator.at/after/every,
# EventQueue.push, RandomStreams draws, LoadBalancer.route and
# ServerVM.submit; in the service, AdmissionController.admit,
# BoundedDeadlineQueue.push/pop/expire, QueueDelayController.observe,
# BrownoutLadder.observe, Host.power_watts, TankFluidRC.set_heat/sample,
# ActuationLink.heartbeat, CommandBus.send, RunJournal.record and
# FaultTimeline.record. Requests must keep flowing through them: every
# service request passes admit, route and submit, while push and pop
# see only the requests that wait (one that finds the backlog empty and
# the fleet below max_in_flight is dispatched on arrival), so
# service.queue_ops counts real queueing.
bench-test:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest bench -q

# Every benchmark workload once at full size (~45 s), failing on any
# incorrect operation (bench/run.py exits non-zero). bench-test's
# episodes are shrunk (a 40-tick storm, a 20-tick WAL, reference checks
# up to 600 ticks), so only this reaches the storm's condenser
# excursions (ticks 1200 and 3200) and a 2500-tick WAL resume.
BENCH_WORKLOADS := autoscale-ramp service-storm service-wal ladder-campaign
bench-check:
	for workload in $(BENCH_WORKLOADS); do \
		$(PYTHON) bench/run.py --workload $$workload --seed 1 --seconds 0.01 --trace 0 \
			|| exit 1; \
	done

# WAL soak (~1 min): serve 20,000 unpaced ticks through `python -m repro
# serve` into a temporary cache directory, then resume the run in-process
# (tests/walsoak.py). Fails unless WAL compaction left one WAL file and at
# most SNAPSHOTS_KEPT snapshots, the resume read at most one snapshot
# interval of records (1,024 sig records plus the ops, the kept snap
# records, meta and the journal header), and the newest snapshot is at
# most twice the size of a fresh core's at tick 1,024.
wal-soak:
	@dir="$$(mktemp -d)"; \
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro serve --seed 3 --run soak --port 0 \
		--cache-dir "$$dir" --ticks 20000 --tick-interval 0.0005 \
	&& PYTHONPATH=$(PYTHONPATH):. $(PYTHON) -m tests.walsoak "$$dir" soak 3 20000; \
	status=$$?; rm -rf "$$dir"; exit $$status

clean-cache:
	rm -rf .repro_cache
