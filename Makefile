# Verification entry points. `make verify` is the tier-1 gate plus the
# static and race checks that keep the concurrent sweep code honest; CI and
# pre-commit hooks should call it rather than re-listing the steps.

GO ?= go

# Packages held to the statement-coverage gate below, one cover-<pkg>
# target each.
COVER_TARGETS := cover-netem cover-runcache cover-obs cover-campaign

.PHONY: verify fmt-check build test vet race bench probe-demo fuzz-smoke $(COVER_TARGETS) impair-demo docs-check chaos-smoke campaign-smoke

# The benchmark under bench/ is a module of its own, so the root ./...
# leaves it out; verify vets and tests it explicitly.
verify: fmt-check build vet test race $(COVER_TARGETS)
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Every Go file, the bench module's included, must be gofmt-clean.
fmt-check:
	test -z "$$(gofmt -l .)"

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# The sweep runner, the observability sinks, the run cache, and the campaign
# coordinator are the only concurrent code in the repository; keep them
# race-clean. netem and tcp ride along: they are single-threaded by design,
# and -race on them proves a future refactor didn't quietly share an
# impairer or a sender across workers.
race:
	$(GO) test -race ./internal/experiment/... ./internal/sim/... ./internal/obs/... ./internal/netem/... ./internal/tcp/... ./internal/runcache/... ./internal/campaign/...

# Short coverage-guided sessions: the receiver-reassembly target, the
# event engine's lane-ordering proof, the three scenario value parsers
# (schedule/loss/probability), the run-cache entry decoder, the telemetry
# snapshot decoder, the scenario-file parser, and the campaign-spec parser. Corpora are checked
# in under internal/*/testdata/fuzz. Raise FUZZTIME (and PARSEFUZZTIME for
# the cheap string parsers) for a real local campaign. The snapshot
# decoder's minimisation is capped at 1s: at the default 60s, minimising
# its first new input (the obs test binary is large, so each try is slow)
# would eat the whole session.
FUZZTIME ?= 30s
PARSEFUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test ./internal/tcp -run '^$$' -fuzz FuzzReceiverReassembly -fuzztime $(FUZZTIME)
	$(GO) test ./internal/sim -run '^$$' -fuzz FuzzLaneOrder -fuzztime $(FUZZTIME)
	$(GO) test ./internal/experiment -run '^$$' -fuzz FuzzParseSchedule -fuzztime $(PARSEFUZZTIME)
	$(GO) test ./internal/experiment -run '^$$' -fuzz FuzzParseLoss -fuzztime $(PARSEFUZZTIME)
	$(GO) test ./internal/experiment -run '^$$' -fuzz FuzzParseProb -fuzztime $(PARSEFUZZTIME)
	$(GO) test ./internal/experiment -run '^$$' -fuzz FuzzDecodeRun -fuzztime $(PARSEFUZZTIME)
	$(GO) test ./internal/obs -run '^$$' -fuzz FuzzDecodeSnapshot -fuzztime $(PARSEFUZZTIME) -fuzzminimizetime 1s
	$(GO) test ./internal/scenario -run '^$$' -fuzz FuzzParseScenario -fuzztime $(PARSEFUZZTIME)
	$(GO) test ./internal/campaign -run '^$$' -fuzz FuzzParseCampaign -fuzztime $(PARSEFUZZTIME)

# Statement coverage >= 80% on the packages where a silent bug corrupts
# everything downstream: netem is the loss model under every CC validation
# claim; runcache substitutes stored bytes for executions; obs folds every
# campaign's metrics into the sketches that snapshots, health logs and
# gsreport carry; campaign turns a spec into the merged telemetry every
# report consumes (-short skips its multi-process integration tests).
cover-campaign: COVER_FLAGS = -short
$(COVER_TARGETS): cover-%:
	@$(GO) test $(COVER_FLAGS) -coverprofile=$*.cover.out ./internal/$* > /dev/null
	@$(GO) tool cover -func=$*.cover.out | awk -v pkg=$* '/^total:/ { gsub(/%/, "", $$3); \
		if ($$3 + 0 < 80) { printf "%s coverage %.1f%% < 80%%\n", pkg, $$3; exit 1 } \
		else printf "%s coverage %.1f%% (gate 80%%)\n", pkg, $$3 }'
	@rm -f $*.cover.out

# Every Go benchmark once, as a smoke test that they compile and run. The
# throughput verdict is `bash bench/run.sh --compare`; per-run allocation
# ceilings are tests, run by verify.
bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' ./...

# Documentation gate: every markdown link and backticked file reference in
# the root and docs/ markdown must resolve to a real file, every flag the
# docs, this Makefile and CI pass to a command must still be defined by
# it, and every shipped scenario and campaign file must parse to a
# cacheable configuration.
docs-check:
	$(GO) test -run 'TestDocsLinksResolve|TestDocsFlagsExist|TestDocFlagRefs|TestScenarioFilesParse|TestCampaignFilesParse' -count=1 .

# A sharded campaign end to end at CI size: two gscampaign processes share
# a throwaway directory and cache — the second joins with -resume once the
# first has written manifest.json — split the shards through the claim
# files, and both merge; gsreport renders the merged telemetry. A further
# -resume of the finished campaign (a pure re-merge) must leave the
# deterministic artefact byte-identical, and the spec run by one process
# into a fresh directory and cache must match the two-process run's merged
# telemetry and runlog byte for byte.
campaign-smoke:
	rm -rf campaign-smoke.dir campaign-smoke.one
	printf '%s\n' '[campaign]' 'name = ci-smoke' 'seed = 42' 'iterations = 2' \
		'scale = 0.05' 'shards = 4' '' '[grid]' 'systems = stadia, luna' \
		'ccas = cubic, solo' 'capacities = 25mbit' 'queue_mults = 2' \
		> campaign-smoke.campaign
	$(GO) build -o campaign-smoke.bin ./cmd/gscampaign
	./campaign-smoke.bin -spec campaign-smoke.campaign -dir campaign-smoke.dir > /dev/null & pid=$$!; \
		for i in $$(seq 1 200); do test -f campaign-smoke.dir/manifest.json && break; sleep 0.05; done; \
		./campaign-smoke.bin -dir campaign-smoke.dir -resume > /dev/null; second=$$?; \
		wait $$pid && test $$second -eq 0
	cp campaign-smoke.dir/merged.det.json campaign-smoke.det1.json
	./campaign-smoke.bin -dir campaign-smoke.dir -resume > /dev/null
	cmp campaign-smoke.det1.json campaign-smoke.dir/merged.det.json
	./campaign-smoke.bin -spec campaign-smoke.campaign -dir campaign-smoke.one -quiet > /dev/null
	cmp campaign-smoke.dir/merged.det.json campaign-smoke.one/merged.det.json
	cmp campaign-smoke.dir/merged.runs.jsonl campaign-smoke.one/merged.runs.jsonl
	$(GO) run ./cmd/gsreport campaign-smoke.dir
	rm -rf campaign-smoke.dir campaign-smoke.one campaign-smoke.campaign campaign-smoke.det1.json campaign-smoke.bin

# The EXPERIMENTS.md chaos example at CI size: a seeded campaign through a
# throwaway cache, rendered as the per-invariant verdict table, then
# re-run to prove the 100% cache hit. Exit status is non-zero on any
# invariant violation.
chaos-smoke:
	rm -rf chaos-smoke.cache
	$(GO) run ./cmd/gssim -chaos -chaos-runs 40 -seed 42 -scale 0.05 \
		-cache chaos-smoke.cache -invariants-out chaos-smoke.json
	$(GO) run ./cmd/gssim -chaos -chaos-runs 40 -seed 42 -scale 0.05 \
		-cache chaos-smoke.cache
	$(GO) run ./cmd/gsreport chaos-smoke.json
	rm -rf chaos-smoke.cache chaos-smoke.json

# The EXPERIMENTS.md worked example: one probed Cubic-vs-BBR run plus the
# terminal summaries of the exported CC and queue telemetry. -probe-out is
# the directory receiving <condition>__seed<seed>.* exports.
probe-demo:
	$(GO) run ./cmd/gssim -cca cubic,bbr -probe -probe-out demo > demo.trace.csv
	$(GO) run ./cmd/gsreport demo/stadia_cubic_B25_q2.0x__seed1.cc.csv \
		demo/stadia_cubic_B25_q2.0x__seed1.queue.csv

# The EXPERIMENTS.md impairment example: Gilbert-Elliott loss plus a mid-run
# link flap (scenarios/bursty_flap.scn), with the loss episodes surfaced
# from the probe's drop log.
impair-demo:
	$(GO) run ./cmd/gssim -scenario scenarios/bursty_flap.scn -probe -probe-out impair \
		-runlog impair.jsonl > impair.trace.csv
	$(GO) run ./cmd/gsreport "impair/stadia_cubic_B25_q2.0x_geP0.01R0.25+jit2ms__seed1.drops.csv" \
		impair.jsonl
