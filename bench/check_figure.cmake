# ctest helper for the figure driver and the CLIs (registered in
# bench/CMakeLists.txt and examples/CMakeLists.txt).
#
#   cmake -DEXE=<binary> "-DARGS=<flags>" <mode> -P check_figure.cmake
#
# Modes:
#   -DCSV=<out> -DREFERENCE=<committed csv>
#       the run must exit 0 and write a CSV equal to REFERENCE byte for byte;
#   -DSTDOUT=<committed file>
#       the run must exit 0 and print the file's bytes exactly to stdout;
#   -DERROR=<regex>
#       the run must exit 1 with stderr matching the regex.
separate_arguments(args UNIX_COMMAND "${ARGS}")
if(DEFINED CSV)
  list(APPEND args --csv "${CSV}")
endif()
execute_process(COMMAND "${EXE}" ${args}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)

if(DEFINED ERROR)
  if(NOT rc EQUAL 1 OR NOT err MATCHES "${ERROR}")
    message(FATAL_ERROR
      "expected exit 1 and stderr matching '${ERROR}', got exit ${rc}:\n${err}")
  endif()
elseif(DEFINED STDOUT)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "exit ${rc}:\n${out}${err}")
  endif()
  file(READ "${STDOUT}" expected)
  if(NOT out STREQUAL expected)
    message(FATAL_ERROR "stdout differs from the committed ${STDOUT}:\n${out}")
  endif()
else()
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "exit ${rc}:\n${out}${err}")
  endif()
  execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files "${CSV}" "${REFERENCE}"
                  RESULT_VARIABLE differs)
  if(NOT differs EQUAL 0)
    message(FATAL_ERROR "${CSV} differs from the committed ${REFERENCE}")
  endif()
endif()
