.PHONY: all build test campaign-smoke byte-identity estimator-smoke bench-json bench-smoke bench-check bench-check-advisory obs-smoke bench-page explore-smoke chaos-smoke bira-smoke resume-determinism ci clean

all: build

build:
	dune build

test: build
	dune runtest

# Short randomized campaign as a CI gate: the stuck-at mix is fully
# covered by IFA-9, so any escape or oracle divergence is a regression
# (--fail-on-anomaly exits 3 in that case).  Runs on two worker domains
# to exercise the parallel scheduler in CI.
campaign-smoke: build
	dune exec bin/bisramgen.exe -- campaign --trials 50 --seed 7 \
	  --mix stuck-at --fail-on-anomaly --jobs 2 > /dev/null

# Byte-identity gate: the worker count and the lane-batch width are
# pure throughput knobs, so every config below must give the same
# report bytes sequentially and scalar (--jobs 1 --batch-lanes 1) as
# in parallel and lane-batched (--jobs 2 --batch-lanes 62).  The
# configs cover full 62-wide batches with a ragged tail, a faulty and
# a mostly-clean fault load (clean lanes are the ones the batch engine
# resolves without unpacking), the default mix at uniform 2 faults
# (the traffic of the shared armed-cell kernel), the importance-
# weighted estimator (its weighted sums accumulate in strict trial
# order) and every BIRA allocator (fault-list collection rides the
# batched kernels).
IDENTITY_CONFIGS = \
  "--trials 50 --seed 7 --mix stuck-at" \
  "--trials 130 --seed 7 --mix stuck-at" \
  "--trials 130 --seed 7 --mode poisson --mean 0.4" \
  "--trials 130 --seed 7 --faults 2" \
  "--spares 0 --mix stuck-at --mode poisson --mean 0.05 --seed 7 \
     --trials 400 --no-shrink --proposal-count-scale 10" \
  "--trials 40 --seed 11 --mode poisson --mean 3 --spare-cols 2 \
     --repair bira-greedy" \
  "--trials 40 --seed 11 --mode poisson --mean 3 --spare-cols 2 \
     --repair bira-essential" \
  "--trials 40 --seed 11 --mode poisson --mean 3 --spare-cols 2 \
     --repair bira-bnb"

byte-identity: build
	@for c in $(IDENTITY_CONFIGS); do \
	  dune exec bin/bisramgen.exe -- campaign $$c --jobs 1 \
	    --batch-lanes 1 > .ci-identity-a.json && \
	  dune exec bin/bisramgen.exe -- campaign $$c --jobs 2 \
	    --batch-lanes 62 > .ci-identity-b.json && \
	  diff .ci-identity-a.json .ci-identity-b.json || \
	  { echo "byte-identity: FAILED on $$c"; exit 1; }; \
	done
	rm -f .ci-identity-a.json .ci-identity-b.json
	@echo "byte-identity: OK"

# Rare-event estimation gate: adaptive stopping must actually save
# trials.  On a rigged low-density config (poisson mean 0.02, zero
# spare rows, so the repair-failure rate is ~0.0198) the stratified
# proposal must reach the CI target in strictly fewer trials than
# naive adaptive sampling.  (The importance-weighted report's
# byte identity across --jobs is checked by byte-identity.)
estimator-smoke: build
	dune exec bin/bisramgen.exe -- campaign --spares 0 --mix stuck-at \
	  --mode poisson --mean 0.02 --seed 7 --jobs 2 --no-shrink \
	  --target-ci 0.25 --ci-batch 992 --ci-max-trials 20000 \
	  --proposal-nonzero 0.5 > .ci-est-strat.json 2> /dev/null
	dune exec bin/bisramgen.exe -- campaign --spares 0 --mix stuck-at \
	  --mode poisson --mean 0.02 --seed 7 --jobs 2 --no-shrink \
	  --target-ci 0.25 --ci-batch 992 --ci-max-trials 20000 \
	  > .ci-est-naive.json 2> /dev/null
	@s=$$(sed -n 's/^ *"trials_run": \([0-9]*\),*$$/\1/p' .ci-est-strat.json); \
	n=$$(sed -n 's/^ *"trials_run": \([0-9]*\),*$$/\1/p' .ci-est-naive.json); \
	echo "estimator-smoke: stratified $$s trials vs naive $$n"; \
	test "$$s" -lt "$$n"
	rm -f .ci-est-strat.json .ci-est-naive.json
	@echo "estimator-smoke: OK"

# Machine-readable perf trajectory: campaign throughput at several
# --jobs levels plus clean vs faulty-word kernel microbenchmarks, written to
# the repo root so subsequent changes have a baseline to regress
# against (see EXPERIMENTS.md for the interpretation).
bench-json: build
	dune exec bench/bench_json.exe -- -o BENCH_campaign.json

# Wiring check for the bench harness itself: tiny trial/rep counts, a
# throwaway output file (its numbers are noise by design — bench-json
# is the one that regenerates the committed baseline).
bench-smoke: build
	dune exec bench/bench_json.exe -- --smoke -o .ci-bench-smoke.json
	rm -f .ci-bench-smoke.json
	@echo "bench-smoke: OK"

# Perf regression gate: a fresh --quick bench run (campaign + lanes
# sections only) against the committed baseline, failing when
# trials_per_sec dropped beyond the noise tolerance.  `make ci` runs
# it through bench-check-advisory — warn-only — because CI boxes
# (especially 1-core containers) are too noisy to hard-fail on wall
# clock; run the strict form manually on a quiet machine.
BENCH_CHECK_FLAGS ?=
bench-check: build
	dune exec bench/bench_json.exe -- --quick -o .ci-bench-fresh.json
	dune exec bench/bench_check.exe -- --baseline BENCH_campaign.json \
	  --fresh .ci-bench-fresh.json $(BENCH_CHECK_FLAGS)
	rm -f .ci-bench-fresh.json
	@echo "bench-check: OK"

bench-check-advisory:
	$(MAKE) bench-check BENCH_CHECK_FLAGS=--advisory

# Observability wiring check: one campaign with every channel armed
# (trace, metrics, event log, live progress, status file) must
# (1) produce a report byte-identical to the same run with every
# channel off, and (2) leave artifacts that obs_check strict-parses:
# a well-formed Chrome trace with trial spans, a metrics file with the
# always-present counters and cycle histogram, a JSONL event log with
# the run lifecycle pair in (ts_ns, tid, seq) order, and a final
# status snapshot.
obs-smoke: build
	dune exec bin/bisramgen.exe -- campaign --trials 40 --seed 7 \
	  --mix stuck-at --jobs 2 --trace .ci-obs.trace.json \
	  --metrics .ci-obs.metrics.json --events .ci-obs.events.jsonl \
	  --progress --status-file .ci-obs.status.json \
	  > .ci-obs-on.json 2> /dev/null
	dune exec bin/bisramgen.exe -- campaign --trials 40 --seed 7 \
	  --mix stuck-at --jobs 2 > .ci-obs-off.json
	diff .ci-obs-on.json .ci-obs-off.json
	dune exec bench/obs_check.exe -- --trace .ci-obs.trace.json \
	  --metrics .ci-obs.metrics.json --events .ci-obs.events.jsonl \
	  --status .ci-obs.status.json
	rm -f .ci-obs.trace.json .ci-obs.metrics.json .ci-obs.events.jsonl \
	  .ci-obs.status.json .ci-obs-on.json .ci-obs-off.json
	@echo "obs-smoke: OK"

# Bench trajectory page: render BENCH_history.jsonl to a static HTML
# trend page (advisory against the committed baseline — same noise
# rationale as bench-check-advisory), then prove the --check gate has
# teeth by rendering a synthetic history whose latest campaign
# throughput is floored to 1 trial/s: that run must exit non-zero.
bench-page: build
	dune exec bench/bench_page.exe -- --history BENCH_history.jsonl \
	  --baseline BENCH_campaign.json -o .ci-bench-page.html \
	  --check --advisory
	sed 's/"campaign_trials_per_sec_jobs1":[0-9.eE+-]*/"campaign_trials_per_sec_jobs1":1.0/' \
	  BENCH_history.jsonl > .ci-bench-history-regressed.jsonl
	! dune exec bench/bench_page.exe -- \
	  --history .ci-bench-history-regressed.jsonl \
	  --baseline BENCH_campaign.json -o .ci-bench-page-regressed.html \
	  --check
	rm -f .ci-bench-page.html .ci-bench-page-regressed.html \
	  .ci-bench-history-regressed.jsonl
	@echo "bench-page: OK"

# Explore determinism + cache gate: the tiny example sweep must produce
# byte-identical reports sequentially and in parallel, and a second run
# resuming from the first run's cache must hit on every evaluation.
explore-smoke: build
	rm -rf .ci-explore-cache
	dune exec bin/bisramgen.exe -- explore --spec examples/explore_smoke.spec \
	  --jobs 1 --cache .ci-explore-cache > .ci-explore-jobs1.json
	dune exec bin/bisramgen.exe -- explore --spec examples/explore_smoke.spec \
	  --jobs 2 --cache .ci-explore-cache --resume \
	  > .ci-explore-jobs2.json 2> .ci-explore-warm.err
	diff .ci-explore-jobs1.json .ci-explore-jobs2.json
	grep -q "(100.0% hit rate)" .ci-explore-warm.err
	rm -rf .ci-explore-cache .ci-explore-jobs1.json .ci-explore-jobs2.json \
	  .ci-explore-warm.err
	@echo "explore-smoke: OK"

# Fault-injection gate: with deterministic chaos armed, transient job
# failures must be absorbed by the pool's retry and injected cache
# corruption must quarantine-and-recompute — both byte-identical to the
# clean run (the whole point of the fault-tolerant execution layer).
chaos-smoke: build
	dune exec bin/bisramgen.exe -- campaign --trials 40 --seed 7 \
	  --mix stuck-at --jobs 2 > .ci-chaos-clean.json
	BISRAM_CHAOS_SEED=11 BISRAM_CHAOS_JOB=0.2 \
	  dune exec bin/bisramgen.exe -- campaign --trials 40 --seed 7 \
	  --mix stuck-at --jobs 2 > .ci-chaos-faulted.json
	diff .ci-chaos-clean.json .ci-chaos-faulted.json
	rm -rf .ci-chaos-cache
	dune exec bin/bisramgen.exe -- explore --spec examples/explore_smoke.spec \
	  --jobs 1 --cache .ci-chaos-cache > .ci-chaos-explore-cold.json
	BISRAM_CHAOS_SEED=3 BISRAM_CHAOS_CACHE_READ=0.5 \
	  dune exec bin/bisramgen.exe -- explore \
	  --spec examples/explore_smoke.spec --jobs 2 --cache .ci-chaos-cache \
	  --resume > .ci-chaos-explore-heal.json 2> .ci-chaos-explore.err
	diff .ci-chaos-explore-cold.json .ci-chaos-explore-heal.json
	grep -q "cache self-heal" .ci-chaos-explore.err
	rm -rf .ci-chaos-cache .ci-chaos-clean.json .ci-chaos-faulted.json \
	  .ci-chaos-explore-cold.json .ci-chaos-explore-heal.json \
	  .ci-chaos-explore.err
	@echo "chaos-smoke: OK"

# 2D BIRA gate: (1) the default row-TLB report must still match the
# committed golden bytes (test/golden_row_tlb.json) — the BIRA layer
# must be invisible unless asked for; (2) a bogus --repair name must
# be rejected with the usage exit code (2).  (Every allocator's byte
# identity across worker counts and lane widths is checked by
# byte-identity.)
bira-smoke: build
	dune exec bin/bisramgen.exe -- campaign --trials 60 --seed 7 --jobs 1 \
	  > .ci-bira-golden.json
	cmp .ci-bira-golden.json test/golden_row_tlb.json
	dune exec bin/bisramgen.exe -- campaign --repair frobnicate \
	  > /dev/null 2>&1; test $$? -eq 2
	rm -f .ci-bira-golden.json
	@echo "bira-smoke: OK"

# Crash-recovery gate: a campaign killed mid-run (injected exit 137 at
# trial 25) leaves a checkpoint from which --resume reproduces the
# uninterrupted report byte-for-byte.
resume-determinism: build
	rm -f .ci-resume.ckpt.json
	dune exec bin/bisramgen.exe -- campaign --trials 60 --seed 7 \
	  --mix stuck-at --jobs 2 > .ci-resume-full.json
	BISRAM_CHAOS_KILL_TRIAL=25 dune exec bin/bisramgen.exe -- campaign \
	  --trials 60 --seed 7 --mix stuck-at --jobs 2 \
	  --checkpoint .ci-resume.ckpt.json --checkpoint-every 5 \
	  > /dev/null; test $$? -eq 137
	test -s .ci-resume.ckpt.json
	dune exec bin/bisramgen.exe -- campaign --trials 60 --seed 7 \
	  --mix stuck-at --jobs 2 --checkpoint .ci-resume.ckpt.json --resume \
	  > .ci-resume-resumed.json 2> .ci-resume.err
	grep -q "resumed" .ci-resume.err
	diff .ci-resume-full.json .ci-resume-resumed.json
	rm -f .ci-resume-full.json .ci-resume-resumed.json .ci-resume.ckpt.json \
	  .ci-resume.err
	@echo "resume-determinism: OK"

ci: build test campaign-smoke byte-identity estimator-smoke bench-smoke bench-check-advisory obs-smoke bench-page explore-smoke chaos-smoke bira-smoke resume-determinism
	@echo "ci: OK"

clean:
	dune clean
