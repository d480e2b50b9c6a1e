#!/bin/sh
# Builds the ledger from the sources of the current directory (the
# repository root) and runs it with the given arguments.  The dune
# cache is off so that nothing is written outside this directory.
exec dune exec --root . --cache=disabled --display quiet \
  ./bench/ledger/ledger.exe -- "$@"
