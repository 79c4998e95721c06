#!/bin/sh
# two-ring blackbox: f = x2, g = (1 - |x|^2, |x|^2 - 4). Same operation
# order as the analytic evaluator, so the outputs are bit-identical.
exec awk '{
    r2 = $1 * $1 + $2 * $2
    printf "%.17g %.17g %.17g\n", $2, 1.0 - r2, r2 - 4.0
}'
