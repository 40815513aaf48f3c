# Shared warning / sanitizer configuration for all qols targets.
#
# qols_set_compile_options(<target>) applies the project-wide warning set
# (plus -Werror when QOLS_WERROR is ON), -ffp-contract=off, and sanitizer
# instrumentation to both compile and link steps: Address+UB when
# QOLS_SANITIZE is ON, Thread when QOLS_SANITIZE_THREAD is ON (mutually
# exclusive; the trial engine and thread pool are the TSan targets).

function(qols_set_compile_options target)
  if(MSVC)
    target_compile_options(${target} PRIVATE /W4)
    if(QOLS_WERROR)
      target_compile_options(${target} PRIVATE /WX)
    endif()
  else()
    target_compile_options(${target} PRIVATE -Wall -Wextra -Wpedantic)
    # No a*b+c contraction: the scalar and AVX2 kernels share one source and
    # must round identically whatever -march or the compiler default says.
    target_compile_options(${target} PRIVATE
      $<$<CXX_COMPILER_ID:GNU,Clang,AppleClang>:-ffp-contract=off>)
    if(QOLS_WERROR)
      target_compile_options(${target} PRIVATE -Werror)
    endif()
  endif()

  if(QOLS_SANITIZE AND NOT MSVC)
    target_compile_options(${target} PRIVATE
      -fsanitize=address,undefined -fno-omit-frame-pointer)
    target_link_options(${target} PRIVATE
      -fsanitize=address,undefined)
  endif()

  if(QOLS_SANITIZE_THREAD AND NOT MSVC)
    target_compile_options(${target} PRIVATE
      -fsanitize=thread -fno-omit-frame-pointer)
    target_link_options(${target} PRIVATE
      -fsanitize=thread)
  endif()
endfunction()
