# The snapshot round-trip and divergence audit of a branching bench. Run as:
#   cmake -DBENCH=<jgre_bench> -DNAME=<bench> -DOUT=<path prefix>
#         [-DPYTHON=<python3> -DVALIDATOR=<validate_snapshot_manifest.py>]
#         -P snapshot_audit.cmake
#
# Three runs of `BENCH NAME`, each writing its JSON next to OUT:
#   warm    --jobs 2, building the shared prefix and writing it to OUT.ckpt
#   resume  --jobs 1, loading the prefix from OUT.ckpt
#   cold    --jobs 2, re-simulating the prefix per branch
# All three outputs must be byte-identical. Then, if VALIDATOR is set, PYTHON
# checks the checkpoint's manifest against the image.
function(run_bench mode)
  execute_process(
    COMMAND "${BENCH}" ${NAME} ${ARGN} --json "${OUT}.${mode}.json"
    RESULT_VARIABLE rc
    OUTPUT_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "jgre_bench ${NAME} ${ARGN} exited with ${rc}")
  endif()
endfunction()

file(REMOVE "${OUT}.ckpt" "${OUT}.ckpt.manifest.json")
run_bench(warm --jobs 2 --checkpoint "${OUT}.ckpt")
run_bench(resume --jobs 1 --resume "${OUT}.ckpt")
run_bench(cold --jobs 2 --cold)
foreach(mode resume cold)
  execute_process(
    COMMAND "${CMAKE_COMMAND}" -E compare_files "${OUT}.${mode}.json"
      "${OUT}.warm.json"
    RESULT_VARIABLE differ)
  if(NOT differ EQUAL 0)
    message(FATAL_ERROR "${OUT}.${mode}.json differs from ${OUT}.warm.json: "
      "the ${mode} run diverged from the warm one")
  endif()
endforeach()

if(VALIDATOR)
  execute_process(
    COMMAND "${PYTHON}" "${VALIDATOR}" "${OUT}.ckpt.manifest.json"
      --image "${OUT}.ckpt"
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${VALIDATOR} rejected ${OUT}.ckpt.manifest.json")
  endif()
endif()
