# The programs whose stdout+stderr is pinned under tests/golden/: the four
# examples and the 15 virtual-time benches. Sourced by ci.sh, which compares
# their output with the goldens, and by traffic.sh, which measures the src/
# code they run, so the two lists cannot drift apart.
# shellcheck shell=bash disable=SC2034
pinned_examples="quickstart adhoc_surrogates policy_lab raytrace_speedup"
pinned_benches="chaos fault_recovery disconnect rpc_batch fleet fig5_graph
  fig6_overhead fig7_policy fig8_native fig10_cpu table1_apps table2_metrics
  sec51_memory ablation_link ablation_mincut"
