# Included by the repository's top-level project() call when run.py
# configures with -DCMAKE_PROJECT_INCLUDE=<this file>. It defers the
# benchmark's own build file to the end of the top-level CMakeLists.txt, so
# the driver links the library targets built with the repository's own
# flags and settings.
if(NOT PERFBENCH_ATTACHED)
  set(PERFBENCH_ATTACHED ON)
  set(PERFBENCH_DIR ${CMAKE_CURRENT_LIST_DIR})
  cmake_language(DEFER CALL include ${PERFBENCH_DIR}/CMakeLists.txt)
endif()
