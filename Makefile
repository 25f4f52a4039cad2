GO ?= go

.PHONY: all build test race vet lint check bench artifacts chaos-smoke trace-smoke serve-smoke profile-smoke

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# lint runs vet plus staticcheck when it is installed; staticcheck is
# optional so the target works on a bare toolchain.
lint: vet
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed; ran go vet only"; \
	fi

# race runs the whole suite under the race detector; the parallel
# experiment harness (internal/exper cell runner, cmd/dexbench) must stay
# clean here.
race:
	$(GO) test -race ./...

# check is the gate CI runs: build, vet, plain tests, then the race run.
check: build vet test race

# bench runs the Go benchmarks, then regenerates BENCH_hotpath.json (the
# machine-readable hot-path record; speedups are computed against the
# baseline section embedded in the existing file).
bench:
	$(GO) test -bench=. -benchmem -run=^$$ ./...
	$(GO) run ./cmd/dexhotpath -out BENCH_hotpath.json

# artifacts regenerates the paper tables at full scale (EXPERIMENTS.md data).
artifacts:
	$(GO) run ./cmd/dexbench -size full

# SWEEP_FAULTS is the full fault mix of the chaos-smoke sweep leg.
SWEEP_FAULTS = -nodes 4 -threads 4 -drops 0,0.2 -dup 0.2 -delay 20us -crash 2ms -restart

# chaos-smoke runs a small fault-injection campaign twice under each
# protocol and compares the outputs byte for byte (same seed + same plan
# must reproduce exactly), then gates a crash campaign on 100% survival
# with checkpoint/restart enabled. The sweep leg gates every
# {wi,home} x {kmn,srv} cell at seeds 1-8 on 4 nodes under the full fault
# mix, and compares one srv/home campaign at -cores 4 with -cores 1. dist
# is left out of the sweep until its srv livelock is fixed (ROADMAP.md,
# open item 1).
chaos-smoke:
	$(GO) run ./cmd/dexchaos -quiet -app kmn -nodes 3 -threads 4 -drops 0,0.1 -dup 0.2 > chaos1.txt
	$(GO) run ./cmd/dexchaos -quiet -app kmn -nodes 3 -threads 4 -drops 0,0.1 -dup 0.2 > chaos2.txt
	cmp chaos1.txt chaos2.txt
	$(GO) run ./cmd/dexchaos -quiet -app kmn -nodes 3 -threads 4 -drops 0,0.1 -dup 0.2 -cores 4 > chaos4.txt
	cmp chaos1.txt chaos4.txt
	$(GO) run ./cmd/dexchaos -quiet -app kmn -nodes 3 -threads 4 -drops 0,0.1 -dup 0.2 -protocol home > chaos-hm1.txt
	$(GO) run ./cmd/dexchaos -quiet -app kmn -nodes 3 -threads 4 -drops 0,0.1 -dup 0.2 -protocol home > chaos-hm2.txt
	cmp chaos-hm1.txt chaos-hm2.txt
	$(GO) run ./cmd/dexchaos -quiet -app kmn -nodes 3 -threads 4 -drops 0,0.1 -dup 0.2 -protocol dist -restart > chaos-dm1.txt
	$(GO) run ./cmd/dexchaos -quiet -app kmn -nodes 3 -threads 4 -drops 0,0.1 -dup 0.2 -protocol dist -restart -cores 4 > chaos-dm4.txt
	cmp chaos-dm1.txt chaos-dm4.txt
	$(GO) run ./cmd/dexchaos -quiet -app kmn -nodes 3 -threads 4 -drops 0,0.1 -crash 3ms -restart -fail-under 1 > /dev/null
	$(GO) run ./cmd/dexchaos -quiet -app kmn -nodes 3 -threads 4 -drops 0,0.1 -crash 3ms -restart -fail-under 1 -protocol home > /dev/null
	$(GO) run ./cmd/dexchaos -quiet -app kmn -nodes 3 -threads 4 -drops 0,0.1 -crash 3ms -restart -fail-under 1 -protocol dist > /dev/null
	rm -f chaos1.txt chaos2.txt chaos4.txt chaos-hm1.txt chaos-hm2.txt chaos-dm1.txt chaos-dm4.txt
	$(GO) build -o dexchaos.sweep ./cmd/dexchaos
	@for p in wi home; do for a in kmn srv; do for s in 1 2 3 4 5 6 7 8; do \
		echo "dexchaos -protocol $$p -app $$a -seed $$s"; \
		./dexchaos.sweep -quiet -protocol $$p -app $$a -seed $$s $(SWEEP_FAULTS) -fail-under 1 > /dev/null || exit 1; \
	done; done; done
	./dexchaos.sweep -quiet -protocol home -app srv $(SWEEP_FAULTS) > chaos-sweep1.txt
	./dexchaos.sweep -quiet -protocol home -app srv $(SWEEP_FAULTS) -cores 4 > chaos-sweep4.txt
	cmp chaos-sweep1.txt chaos-sweep4.txt
	rm -f dexchaos.sweep chaos-sweep1.txt chaos-sweep4.txt

# serve-smoke exercises the serving subsystem end to end: the default SLO
# table must match the committed golden, reproduce byte-for-byte across
# reruns and at -cores 4, and a crash+restart run must complete with its
# exactly-once accounting intact (serve.Run fails the run otherwise).
serve-smoke:
	$(GO) run ./cmd/dexserve > serve1.txt
	cmp serve1.txt cmd/dexserve/testdata/golden.txt
	$(GO) run ./cmd/dexserve > serve2.txt
	cmp serve1.txt serve2.txt
	$(GO) run ./cmd/dexserve -cores 4 > serve4.txt
	cmp serve1.txt serve4.txt
	$(GO) run ./cmd/dexserve -nodes 3 -crash 10ms -restart > /dev/null
	$(GO) run ./cmd/dexserve -nodes 3 -crash 10ms -restart -protocol home > /dev/null
	rm -f serve1.txt serve2.txt serve4.txt

# trace-smoke records a traced run serially and at -cores 4 and compares
# the trace bytes (the lane-sharded recorder must merge deterministically),
# then structurally validates the file with dextrace.
trace-smoke:
	$(GO) run ./cmd/dexrun -app bfs -nodes 4 -seed 7 -trace trace1.json -metrics > /dev/null
	$(GO) run ./cmd/dexrun -app bfs -nodes 4 -seed 7 -cores 4 -trace trace4.json -metrics > /dev/null
	cmp trace1.json trace4.json
	$(GO) run ./cmd/dextrace -validate trace1.json
	rm -f trace1.json trace4.json

# profile-smoke runs every example program and compares the page-fault
# profiler's output — dexprof's full report and the profiler and affinity
# examples — with the committed goldens.
profile-smoke:
	$(GO) run ./cmd/dexprof -app kmn -nodes 4 -variant initial -top 5 -affinity -timeline > prof.txt
	cmp prof.txt cmd/dexprof/testdata/golden.txt
	@for d in examples/*/; do \
		n=$$(basename $$d); \
		echo "$(GO) run ./$$d"; \
		$(GO) run ./$$d > example-$$n.txt || exit 1; \
	done
	cmp example-profiler.txt examples/profiler/testdata/golden.txt
	cmp example-affinity.txt examples/affinity/testdata/golden.txt
	rm -f prof.txt example-*.txt
