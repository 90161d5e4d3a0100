GO ?= go

.PHONY: build test race check fuzz fmt bench lint

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed:"; echo "$$out"; exit 1; fi

bench:
	sh scripts/bench.sh

lint:
	$(GO) run ./cmd/sigil-lint ./...

fuzz:
	sh scripts/fuzz.sh

check:
	sh scripts/check.sh
