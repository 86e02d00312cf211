/* A SIGPROF sampler for a program built with frame pointers, loaded with
 * LD_PRELOAD (see scripts/hotspots.sh). Every PERIOD_US microseconds of
 * CPU time it records, on the main thread, the interrupted instruction
 * and the return addresses of the frame-pointer chain. The period is the
 * scheduler tick of a CONFIG_HZ=250 kernel: ITIMER_PROF fires no more
 * often than the tick, whatever shorter period it is given. At
 * exit it writes one line per sample to HOTSPOTS_OUT (default
 * hotspots.samples): the addresses as decimal offsets from the main
 * executable's load address, innermost first.
 *
 *   cc -O2 -shared -fPIC -o libsampler.so scripts/sampler.c
 */
#define _GNU_SOURCE
#include <link.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/syscall.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#define MAX_SAMPLES 65536
#define DEPTH 64
#define PERIOD_US 4000

extern void *__libc_stack_end;

static uintptr_t samples[MAX_SAMPLES][DEPTH];
static unsigned char depths[MAX_SAMPLES];
static volatile int taken;
static uintptr_t base;
static pid_t main_thread;

static void on_prof(int sig, siginfo_t *info, void *context) {
    (void)sig, (void)info;
    int n = taken, d = 0;
    if (n >= MAX_SAMPLES || syscall(SYS_gettid) != main_thread)
        return;
    mcontext_t *m = &((ucontext_t *)context)->uc_mcontext;
    uintptr_t sp = m->gregs[REG_RSP], fp = m->gregs[REG_RBP];
    uintptr_t top = (uintptr_t)__libc_stack_end, *out = samples[n];
    out[d++] = m->gregs[REG_RIP];
    /* Follow saved frame pointers only while they stay on this stack and
     * move towards its top; code built without them ends the walk. */
    while (d < DEPTH && fp >= sp && fp % 8 == 0 && fp + 16 <= top) {
        uintptr_t *frame = (uintptr_t *)fp;
        if (frame[1] == 0)
            break;
        out[d++] = frame[1] - 1; /* inside the call instruction */
        if (frame[0] <= fp)
            break;
        fp = frame[0];
    }
    depths[n] = d;
    taken = n + 1;
}

static int first_object(struct dl_phdr_info *info, size_t size, void *data) {
    (void)size, (void)data;
    base = info->dlpi_addr; /* the main executable comes first */
    return 1;
}

__attribute__((constructor)) static void start(void) {
    dl_iterate_phdr(first_object, NULL);
    main_thread = getpid();
    struct sigaction sa = {0};
    sa.sa_sigaction = on_prof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval every = {{0, PERIOD_US}, {0, PERIOD_US}};
    setitimer(ITIMER_PROF, &every, NULL);
}

__attribute__((destructor)) static void stop(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    const char *path = getenv("HOTSPOTS_OUT");
    FILE *f = fopen(path ? path : "hotspots.samples", "w");
    if (!f)
        return;
    for (int i = 0; i < taken; i++) {
        for (int d = 0; d < depths[i]; d++)
            fprintf(f, d ? " %ld" : "%ld", (long)(samples[i][d] - base));
        fputc('\n', f);
    }
    fclose(f);
}
