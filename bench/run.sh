#!/usr/bin/env bash
# Builds the benchmark and runs it from its own directory, with the Go
# build cache kept under out/ so that a run reads and writes only inside
# the checkout and needs neither $HOME nor the network. Arguments go to
# the program unchanged; BENCHMARK.json names this script as the command.
set -eu
cd "$(dirname "$0")"
mkdir -p out
export GOCACHE="$PWD/out/gocache" GOPATH="$PWD/out/gopath" GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local
go build -o out/bench .
exec out/bench "$@"
