/* A SIGPROF sampler for tools/lineprof.sh, loaded with LD_PRELOAD.
 *
 * At load it arms ITIMER_PROF: each millisecond of the process's CPU time
 * raises SIGPROF, and the handler records the program counter the signal
 * interrupted. At exit it writes the samples, one hex address a line, to
 * $LINEPROF_OUT.samples and a copy of its own /proc/self/maps to
 * $LINEPROF_OUT.maps, which the script needs to map each address back to
 * a file and line. Nothing else in the program changes: the handler is
 * installed with SA_RESTART, and a fork()ed child starts with its timer
 * disarmed (POSIX), so only the measured process is sampled.
 *
 * Build: cc -O2 -shared -fPIC -o lineprof_sampler.so lineprof_sampler.c
 */
#define _GNU_SOURCE
#include <fcntl.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

/* One sample a millisecond of CPU time: about 17 minutes fit. */
#define MAX_SAMPLES (1u << 20)

static uintptr_t Samples[MAX_SAMPLES];
static volatile sig_atomic_t NumSamples;
static pid_t Owner;

static void onProf(int Sig, siginfo_t *Info, void *Ctx) {
  (void)Sig;
  (void)Info;
  const ucontext_t *U = (const ucontext_t *)Ctx;
  uintptr_t Pc;
#if defined(__x86_64__)
  Pc = (uintptr_t)U->uc_mcontext.gregs[REG_RIP];
#elif defined(__aarch64__)
  Pc = (uintptr_t)U->uc_mcontext.pc;
#else
#error "lineprof_sampler: no program counter for this architecture"
#endif
  if (NumSamples < (sig_atomic_t)MAX_SAMPLES)
    Samples[NumSamples++] = Pc;
}

static void copyFile(const char *From, const char *To) {
  int In = open(From, O_RDONLY);
  int Out = open(To, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  char Buf[65536];
  ssize_t N;
  while (In >= 0 && Out >= 0 && (N = read(In, Buf, sizeof Buf)) > 0)
    if (write(Out, Buf, (size_t)N) != N)
      break;
  if (In >= 0)
    close(In);
  if (Out >= 0)
    close(Out);
}

__attribute__((constructor)) static void start(void) {
  if (getenv("LINEPROF_OUT") == NULL)
    return;
  Owner = getpid();
  struct sigaction Sa;
  memset(&Sa, 0, sizeof Sa);
  Sa.sa_sigaction = onProf;
  Sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&Sa.sa_mask);
  sigaction(SIGPROF, &Sa, NULL);
  struct itimerval Tick = {{0, 1000}, {0, 1000}};
  setitimer(ITIMER_PROF, &Tick, NULL);
}

__attribute__((destructor)) static void stop(void) {
  const char *Base = getenv("LINEPROF_OUT");
  if (Base == NULL || getpid() != Owner)
    return;
  struct itimerval Off;
  memset(&Off, 0, sizeof Off);
  setitimer(ITIMER_PROF, &Off, NULL);
  char Path[4096];
  snprintf(Path, sizeof Path, "%s.maps", Base);
  copyFile("/proc/self/maps", Path);
  snprintf(Path, sizeof Path, "%s.samples", Base);
  FILE *F = fopen(Path, "w");
  if (F == NULL)
    return;
  for (sig_atomic_t I = 0; I != NumSamples; ++I)
    fprintf(F, "%lx\n", (unsigned long)Samples[I]);
  fclose(F);
}
