#!/bin/sh
# sphere-eq blackbox (n = 5): f = sum x_i^2, h = sum x_i - 1. Sums run left
# to right from 0, as the analytic evaluator's sum() does.
exec awk '{
    f = 0; s = 0
    for (i = 1; i <= NF; i++) { f += $i * $i; s += $i }
    printf "%.17g %.17g\n", f, s - 1.0
}'
