# The benchmark harness (see perfbench/README.md). Included at the end of the
# top-level directory by hook.cmake, so every mecsc_* target already exists.
set(PERFBENCH_SRC "${CMAKE_CURRENT_LIST_DIR}/../src")

add_executable(perfbench_harness
  "${PERFBENCH_SRC}/main.cpp"
  "${PERFBENCH_SRC}/common.cpp"
  "${PERFBENCH_SRC}/spans.cpp"
  "${PERFBENCH_SRC}/probe.cpp"
  "${PERFBENCH_SRC}/children.cpp"
  "${PERFBENCH_SRC}/replay.cpp"
  "${PERFBENCH_SRC}/solve_large.cpp"
  "${PERFBENCH_SRC}/serving.cpp")
target_link_libraries(perfbench_harness PRIVATE
  mecsc_routing mecsc_svc mecsc_core mecsc_build_flags)
# The host-speed probes must not move with the repository's build flags.
set_source_files_properties("${PERFBENCH_SRC}/probe.cpp" PROPERTIES COMPILE_OPTIONS "-O2")
set_target_properties(perfbench_harness PROPERTIES
  RUNTIME_OUTPUT_DIRECTORY "${CMAKE_BINARY_DIR}/perfbench")

# Same GCC 12 std::variant-in-map false positives as src/core/CMakeLists.txt.
if(CMAKE_CXX_COMPILER_ID STREQUAL "GNU")
  target_compile_options(perfbench_harness PRIVATE
    -Wno-maybe-uninitialized -Wno-array-bounds)
endif()
