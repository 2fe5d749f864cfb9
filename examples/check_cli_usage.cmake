# Usage-error check for one example CLI, run by ctest as
#   cmake -DCLI=<binary> -DWORK_DIR=<dir> -DBAD_ARGS=<a|b|...> -P check_cli_usage.cmake
# In an empty working directory: --help and -h must exit 0, and --bogus
# plus every BAD_ARGS case (arguments separated by '|') must exit 2.  No
# run may write anything there -- in particular no `--help/` dataset.
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

function(expect_exit code)
  execute_process(COMMAND "${CLI}" ${ARGN} WORKING_DIRECTORY "${WORK_DIR}"
                  RESULT_VARIABLE result OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT result EQUAL code)
    message(FATAL_ERROR "${CLI} ${ARGN}: exit ${result}, want ${code}\n${out}${err}")
  endif()
  if(NOT "${out}${err}" MATCHES "usage: ")
    message(FATAL_ERROR "${CLI} ${ARGN}: no usage line\n${out}${err}")
  endif()
endfunction()

expect_exit(0 --help)
expect_exit(0 -h)
expect_exit(2 --bogus)
foreach(case IN LISTS BAD_ARGS)
  string(REPLACE "|" ";" args "${case}")
  expect_exit(2 ${args})
endforeach()

file(GLOB left LIST_DIRECTORIES true "${WORK_DIR}/*" "${WORK_DIR}/.*")
if(left OR EXISTS "${WORK_DIR}/--help")
  message(FATAL_ERROR "${CLI} wrote into its working directory: ${left}")
endif()
file(REMOVE_RECURSE "${WORK_DIR}")
