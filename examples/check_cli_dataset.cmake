# Dataset-error checks for the shipped CLIs, run by ctest as
#   cmake -DMODE=info|tampered -DCLI=<binary> -DDATASET=<text dataset dir>
#         -DWORK_DIR=<dir> -P check_cli_dataset.cmake
# MODE=info: `titan-convert --info` on the text dataset must exit 1 with one
# line that names the text layout and points to --fsck, not a raw mapping
# error.  MODE=tampered: analyze_dataset on a copy whose console.log no
# longer matches its manifest checksum must print the triage error without
# the "(run generate_dataset first)" hint; on an empty directory it must
# print the hint.
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

# Run CLI with ARGN; require exit `code`, output matching `want` and not
# matching `reject` (an empty pattern skips its check).
function(expect_run code want reject)
  execute_process(COMMAND "${CLI}" ${ARGN} WORKING_DIRECTORY "${WORK_DIR}"
                  RESULT_VARIABLE result OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT result EQUAL code)
    message(FATAL_ERROR "${CLI} ${ARGN}: exit ${result}, want ${code}\n${out}${err}")
  endif()
  if(NOT "${out}${err}" MATCHES "${want}")
    message(FATAL_ERROR "${CLI} ${ARGN}: output does not match '${want}'\n${out}${err}")
  endif()
  if(NOT reject STREQUAL "" AND "${out}${err}" MATCHES "${reject}")
    message(FATAL_ERROR "${CLI} ${ARGN}: output matches '${reject}'\n${out}${err}")
  endif()
endfunction()

if(MODE STREQUAL "info")
  expect_run(1 "text dataset.*--fsck" "MappedFile" --info "${DATASET}")
elseif(MODE STREQUAL "tampered")
  file(COPY "${DATASET}/" DESTINATION "${WORK_DIR}/tampered")
  file(APPEND "${WORK_DIR}/tampered/console.log" "tampered\n")
  expect_run(2 "E_CHECKSUM_MISMATCH" "generate_dataset first" "${WORK_DIR}/tampered")
  file(MAKE_DIRECTORY "${WORK_DIR}/empty")
  expect_run(2 "run generate_dataset first" "" "${WORK_DIR}/empty")
else()
  message(FATAL_ERROR "check_cli_dataset.cmake: unknown MODE '${MODE}'")
endif()
file(REMOVE_RECURSE "${WORK_DIR}")
