/* A SIGPROF sampler for a program built with frame pointers, loaded with
 * LD_PRELOAD (see scripts/hotspots.sh). Every PERIOD_US microseconds of
 * CPU time it records, on the main thread, the interrupted instruction
 * and the return addresses of the frame-pointer chain. The period is the
 * scheduler tick of a CONFIG_HZ=250 kernel: ITIMER_PROF fires no more
 * often than the tick, whatever shorter period it is given. At
 * exit it writes one line per sample to HOTSPOTS_OUT (default
 * hotspots.samples), innermost first: an address inside the main
 * executable as its decimal offset from the load address, and one
 * outside it (libc's malloc, free, memcpy) as object:symbol, named at
 * exit (dladdr is not async-signal-safe). The symbol is the exported
 * one whose extent holds the address; failing that (a local function,
 * such as libc's memcpy variants behind an IFUNC) it is ~name, the
 * nearest exported function that starts below the address, or ? if the
 * object exports none.
 *
 *   cc -O2 -shared -fPIC -o libsampler.so scripts/sampler.c -ldl
 */
#define _GNU_SOURCE
#include <dlfcn.h>
#include <link.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
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
static uintptr_t base, lo, hi; /* load address and mapped range of the executable */
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
    lo = UINTPTR_MAX;
    for (int i = 0; i < info->dlpi_phnum; i++) {
        const ElfW(Phdr) *p = &info->dlpi_phdr[i];
        if (p->p_type != PT_LOAD)
            continue;
        if (base + p->p_vaddr < lo)
            lo = base + p->p_vaddr;
        if (base + p->p_vaddr + p->p_memsz > hi)
            hi = base + p->p_vaddr + p->p_memsz;
    }
    return 1;
}

/* The nearest exported function of the object holding `a` that starts at
 * or below `a`, from the object's dynamic symbol table. */
struct nearest {
    uintptr_t a, at;
    const char *name;
};

static int find_nearest(struct dl_phdr_info *info, size_t size, void *data) {
    (void)size;
    struct nearest *n = data;
    const ElfW(Dyn) *dyn = NULL;
    int holds = 0;
    for (int i = 0; i < info->dlpi_phnum; i++) {
        const ElfW(Phdr) *p = &info->dlpi_phdr[i];
        uintptr_t start = info->dlpi_addr + p->p_vaddr;
        if (p->p_type == PT_LOAD && n->a >= start && n->a < start + p->p_memsz)
            holds = 1;
        if (p->p_type == PT_DYNAMIC)
            dyn = (const ElfW(Dyn) *)start;
    }
    if (!holds || !dyn)
        return holds;
    uintptr_t symtab = 0, strtab = 0;
    for (; dyn->d_tag != DT_NULL; dyn++) {
        if (dyn->d_tag == DT_SYMTAB)
            symtab = dyn->d_un.d_ptr;
        if (dyn->d_tag == DT_STRTAB)
            strtab = dyn->d_un.d_ptr;
    }
    /* ld.so relocates these entries in most objects, not in the vdso. */
    if (symtab && symtab < info->dlpi_addr)
        symtab += info->dlpi_addr, strtab += info->dlpi_addr;
    /* .dynstr follows .dynsym: the symbol table ends where it begins. */
    if (!symtab || strtab <= symtab)
        return 1;
    for (const ElfW(Sym) *s = (const void *)symtab; (uintptr_t)(s + 1) <= strtab; s++) {
        int type = ELF64_ST_TYPE(s->st_info);
        uintptr_t at = info->dlpi_addr + s->st_value;
        if ((type == STT_FUNC || type == STT_GNU_IFUNC) && s->st_shndx != SHN_UNDEF &&
            at <= n->a && at > n->at) {
            n->at = at;
            n->name = (const char *)strtab + s->st_name;
        }
    }
    return 1;
}

/* Writes one sampled address (see the header for the forms). */
static void put_address(FILE *f, uintptr_t a) {
    Dl_info info;
    if ((a >= lo && a < hi) || !dladdr((void *)a, &info) || !info.dli_fname) {
        fprintf(f, "%ld", (long)(a - base));
        return;
    }
    const char *object = strrchr(info.dli_fname, '/');
    object = object ? object + 1 : info.dli_fname;
    if (info.dli_sname) {
        fprintf(f, "%s:%s", *object ? object : "?", info.dli_sname);
        return;
    }
    struct nearest n = {a, 0, NULL};
    dl_iterate_phdr(find_nearest, &n);
    fprintf(f, "%s:%s%s", *object ? object : "?", n.name ? "~" : "?", n.name ? n.name : "");
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
        for (int d = 0; d < depths[i]; d++) {
            if (d)
                fputc(' ', f);
            put_address(f, samples[i][d]);
        }
        fputc('\n', f);
    }
    fclose(f);
}
