# Benchmark harnesses.  Included from the top-level CMakeLists (not
# add_subdirectory) so ${CMAKE_BINARY_DIR}/bench holds only the runnable
# binaries:  for b in build/bench/*; do $b; done
set(LLIO_BENCH_DIR ${CMAKE_CURRENT_LIST_DIR})

function(llio_add_bench name)
  add_executable(${name} ${LLIO_BENCH_DIR}/${name}.cpp)
  target_link_libraries(${name} PRIVATE llio llio_warnings)
  target_include_directories(${name} PRIVATE ${LLIO_BENCH_DIR})
  set_target_properties(${name} PROPERTIES
    RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
endfunction()

llio_add_bench(bench_fig5_nblock_indep)
llio_add_bench(bench_fig6_nblock_coll)
llio_add_bench(bench_fig7_sblock_indep)
llio_add_bench(bench_fig8_procs_coll)
llio_add_bench(bench_btio)
llio_add_bench(bench_noncontig_cli)
llio_add_bench(bench_ablation_sieve)
llio_add_bench(bench_ablation_network)
llio_add_bench(bench_ablation_striping)
llio_add_bench(bench_ablation_pipeline)
llio_add_bench(bench_ablation_mergeview)
llio_add_bench(bench_ablation_servers)
llio_add_bench(bench_ablation_zerocopy)
llio_add_bench(bench_posix)

llio_add_bench(bench_ablation_pack)
llio_add_bench(bench_ablation_olist)
target_link_libraries(bench_ablation_olist PRIVATE benchmark::benchmark)
