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
# event engine's lane-ordering proof, the three experiment-flag parsers
# (schedule/loss/probability), the scenario-file parser, and the
# campaign-spec parser. Corpora are checked
# in under internal/*/testdata/fuzz. Raise FUZZTIME (and PARSEFUZZTIME for
# the cheap string parsers) for a real local campaign.
FUZZTIME ?= 30s
PARSEFUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test ./internal/tcp -run '^$$' -fuzz FuzzReceiverReassembly -fuzztime $(FUZZTIME)
	$(GO) test ./internal/sim -run '^$$' -fuzz FuzzLaneOrder -fuzztime $(FUZZTIME)
	$(GO) test ./internal/experiment -run '^$$' -fuzz FuzzParseSchedule -fuzztime $(PARSEFUZZTIME)
	$(GO) test ./internal/experiment -run '^$$' -fuzz FuzzParseLoss -fuzztime $(PARSEFUZZTIME)
	$(GO) test ./internal/experiment -run '^$$' -fuzz FuzzParseProb -fuzztime $(PARSEFUZZTIME)
	$(GO) test ./internal/scenario -run '^$$' -fuzz FuzzParseScenario -fuzztime $(PARSEFUZZTIME)
	$(GO) test ./internal/campaign -run '^$$' -fuzz FuzzParseCampaign -fuzztime $(PARSEFUZZTIME)

# Statement coverage >= 80% on the packages where a silent bug corrupts
# everything downstream: netem is the loss model under every CC validation
# claim; runcache substitutes stored bytes for executions; obs folds every
# campaign's metrics into the sketches the live endpoint and gsreport
# -telemetry serve; campaign turns a spec into the merged telemetry every
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
	$(GO) test -run 'TestDocsLinksResolve|TestDocsFlagsExist|TestScenarioFilesParse|TestCampaignFilesParse' -count=1 .

# A sharded campaign end to end at CI size: the coordinator spawns two
# gscampaign worker processes over a throwaway directory, sweeps up and
# merges their shards, and gsreport renders the merged telemetry. The
# second pass resumes the finished campaign (a pure re-merge) and must
# leave the deterministic artefact byte-identical.
campaign-smoke:
	rm -rf campaign-smoke.dir
	printf '%s\n' '[campaign]' 'name = ci-smoke' 'seed = 42' 'iterations = 2' \
		'scale = 0.05' 'shards = 4' '' '[grid]' 'systems = stadia, luna' \
		'ccas = cubic, solo' 'capacities = 25mbit' 'queue_mults = 2' \
		> campaign-smoke.campaign
	$(GO) run ./cmd/gscampaign -spec campaign-smoke.campaign -dir campaign-smoke.dir -workers 2
	cp campaign-smoke.dir/merged.det.json campaign-smoke.det1.json
	$(GO) run ./cmd/gscampaign -dir campaign-smoke.dir -resume > /dev/null
	cmp campaign-smoke.det1.json campaign-smoke.dir/merged.det.json
	$(GO) run ./cmd/gsreport -campaign campaign-smoke.dir
	rm -rf campaign-smoke.dir campaign-smoke.campaign campaign-smoke.det1.json

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
	$(GO) run ./cmd/gsreport -invariants chaos-smoke.json
	rm -rf chaos-smoke.cache chaos-smoke.json

# The EXPERIMENTS.md worked example: one probed Cubic-vs-BBR run plus the
# terminal summaries of the exported CC and queue telemetry.
probe-demo:
	$(GO) run ./cmd/gssim -cca cubic,bbr -probe -probe-out demo > demo.trace.csv
	$(GO) run ./cmd/gsreport -cc demo.cc.csv -queue demo.queue.csv

# The EXPERIMENTS.md impairment example: Gilbert-Elliott loss plus a mid-run
# link flap, with the loss episodes surfaced from the probe's drop log.
impair-demo:
	$(GO) run ./cmd/gssim -loss "ge:p=0.01,r=0.25" -jitter 2ms \
		-schedule "240s down; 242s up" -probe -probe-out impair \
		-runlog impair.jsonl > impair.trace.csv
	$(GO) run ./cmd/gsreport -drops impair.drops.csv
	$(GO) run ./cmd/gsreport -runlog impair.jsonl
