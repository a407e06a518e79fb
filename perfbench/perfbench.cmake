# Build of the scorpio benchmark binary (scorpio_perfbench).
#
# perfbench/run.py configures the repository's own CMake project with
#   -DCMAKE_PROJECT_scorpio_INCLUDE=perfbench/perfbench.cmake
# so the libraries are built exactly as the repository builds them.  The
# first inclusion (at the end of the root project() call) defers a second
# one to the end of the root CMakeLists.txt, where every library target
# and the root compile options exist; that second pass defines the
# binary in the root directory scope so it inherits those options.
if(NOT PERFBENCH_DIR)
  set(PERFBENCH_DIR ${CMAKE_CURRENT_LIST_DIR})
  cmake_language(DEFER DIRECTORY ${CMAKE_SOURCE_DIR}
                 CALL include ${PERFBENCH_DIR}/perfbench.cmake)
  return()
endif()

add_executable(scorpio_perfbench
  ${PERFBENCH_DIR}/cpp/Main.cpp
  ${PERFBENCH_DIR}/cpp/Trace.cpp
  ${PERFBENCH_DIR}/cpp/InProcess.cpp
  ${PERFBENCH_DIR}/cpp/Portfolio.cpp
)
target_link_libraries(scorpio_perfbench PRIVATE scorpio_apps scorpio_service)

# Compiler flags for the run stamp.
string(TOUPPER "${CMAKE_BUILD_TYPE}" PERFBENCH_CONFIG)
get_directory_property(PERFBENCH_OPTIONS COMPILE_OPTIONS)
string(REPLACE ";" " " PERFBENCH_OPTIONS "${PERFBENCH_OPTIONS}")
string(STRIP "${CMAKE_CXX_FLAGS} ${CMAKE_CXX_FLAGS_${PERFBENCH_CONFIG}} ${PERFBENCH_OPTIONS}"
       PERFBENCH_FLAGS)
target_compile_definitions(scorpio_perfbench PRIVATE
  "PERFBENCH_FLAGS=\"${CMAKE_BUILD_TYPE}: ${PERFBENCH_FLAGS}\"")
