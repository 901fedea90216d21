# Project-include hook. run.py configures the repository's own top-level
# CMakeLists.txt with -DCMAKE_PROJECT_INCLUDE=<this file>, so the harness
# links exactly the libraries, flags and build type a normal build of the
# repository produces. The harness targets are declared once the top-level
# directory has defined every library they link.
# Deferred arguments are evaluated when the call runs, so the path is
# captured now.
set(PERFBENCH_CMAKE_DIR "${CMAKE_CURRENT_LIST_DIR}")
cmake_language(DEFER CALL include "${PERFBENCH_CMAKE_DIR}/harness.cmake")
