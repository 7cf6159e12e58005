/* CPU affinity of the calling thread, so that the benchmark can run its
   rounds on each CPU in turn (see common.ml). */

#define _GNU_SOURCE
#include <sched.h>
#include <caml/alloc.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>

/* The CPUs the calling thread may run on, in increasing order; empty when
   the kernel does not say. */
value perfbench_allowed_cpus(value unit)
{
  CAMLparam1(unit);
  CAMLlocal1(cpus);
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) CAMLreturn(caml_alloc(0, 0));
  cpus = caml_alloc(CPU_COUNT(&set), 0);
  mlsize_t j = 0;
  for (int i = 0; i < CPU_SETSIZE && j < Wosize_val(cpus); i++)
    if (CPU_ISSET(i, &set)) Store_field(cpus, j++, Val_int(i));
  CAMLreturn(cpus);
}

/* Restrict the calling thread to the given CPUs; true on success. */
value perfbench_set_cpus(value cpus)
{
  cpu_set_t set;
  CPU_ZERO(&set);
  for (mlsize_t i = 0; i < Wosize_val(cpus); i++) {
    int cpu = Int_val(Field(cpus, i));
    if (cpu >= 0 && cpu < CPU_SETSIZE) CPU_SET(cpu, &set);
  }
  return Val_bool(sched_setaffinity(0, sizeof set, &set) == 0);
}
