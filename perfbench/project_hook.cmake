# Included into the repository's own CMake project right after its project()
# call (run.py passes this file as CMAKE_PROJECT_simq_INCLUDE), so the
# benchmark links the `simq` target exactly as the repository defines it --
# sources, flags and definitions included. `simq` is defined later in the
# root CMakeLists.txt; target_link_libraries resolves it at generate time.
add_executable(perfbench EXCLUDE_FROM_ALL ${CMAKE_CURRENT_LIST_DIR}/src/perfbench.cc)
set_target_properties(perfbench PROPERTIES
  CXX_STANDARD 17 CXX_STANDARD_REQUIRED ON CXX_EXTENSIONS OFF)
target_link_libraries(perfbench PRIVATE simq)
